//! Seeded workload inputs. Everything a workload sends — the hot set, the
//! cold sweep order, batch draws and the churn schedule — comes from the
//! benchmark's own SplitMix64 generator, so the same `--seed` always
//! regenerates the same inputs, independent of any library's RNG.

/// Users in the hot set: fits the engine's default 16,384-entry LRU.
pub const HOT_SET: usize = 8_000;
const _: () = assert!(HOT_SET < 16_384, "the hot set must fit the default LRU");
/// Users per `POST /v1/recommend:batch` call on `cold_batch`.
pub const COLD_BATCH: usize = 256;
/// Users per `POST /v1/recommend:batch` call on `router_batch`.
pub const ROUTER_BATCH: usize = 64;
/// Share of churn ingests re-sent with the same idempotency key.
pub const RETRY_SHARE: f64 = 0.1;
/// Offered churn rate (ingest + re-fetch pairs per second), below the knee.
pub const CHURN_RATE: f64 = 1_000.0;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// One element of `set`, uniformly.
    pub fn pick(&mut self, set: &[u32]) -> u32 {
        set[self.below(set.len() as u64) as usize]
    }
}

/// Generator streams, one per purpose, so adding a draw to one input never
/// shifts another.
const HOT: u64 = 1;
const SWEEP: u64 = 2;
const CHURN: u64 = 3;
/// Per-client streams start here (`CLIENT + k`).
pub const CLIENT: u64 = 16;

/// `HOT_SET` distinct users out of `n_users` (partial Fisher–Yates).
pub fn hot_set(seed: u64, n_users: u32) -> Vec<u32> {
    let mut rng = Rng::stream(seed, HOT);
    let mut ids: Vec<u32> = (0..n_users).collect();
    let k = HOT_SET.min(ids.len());
    for i in 0..k {
        let j = i + rng.below((ids.len() - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids
}

/// A fixed-stride cyclic order over every user: `start + k·step (mod n)`
/// with `step` coprime to `n`, so each lap visits every user once and a
/// user comes back only after all `n − 1` others — longer than any LRU
/// smaller than the population can remember.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    start: u64,
    step: u64,
    n: u64,
    next: u64,
}

impl Sweep {
    pub fn new(seed: u64, n_users: u32) -> Sweep {
        let n = n_users as u64;
        let mut rng = Rng::stream(seed, SWEEP);
        let start = rng.below(n);
        let mut step = n / 3 + rng.below(n / 3);
        while gcd(step, n) != 1 {
            step += 1;
        }
        Sweep {
            start,
            step,
            n,
            next: 0,
        }
    }

    /// The next `len` users of the order.
    pub fn take(&mut self, len: usize) -> Vec<u32> {
        (0..len)
            .map(|_| {
                let u = (self.start + self.next * self.step) % self.n;
                self.next += 1;
                u as u32
            })
            .collect()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One scheduled churn event: a keyed ingest (re-sent once when `retry`),
/// then a re-fetch of the same user.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the ingest is due, from the start of the schedule.
    pub due_ns: u64,
    pub user: u32,
    pub item: u32,
    pub rating: f32,
    pub key: String,
    pub retry: bool,
}

/// `count` events at a fixed `rate` per second.
pub fn churn_schedule(
    seed: u64,
    n_users: u32,
    n_items: u32,
    rate: f64,
    count: usize,
) -> Vec<Event> {
    let mut rng = Rng::stream(seed, CHURN);
    let gap_ns = 1e9 / rate;
    (0..count)
        .map(|k| Event {
            due_ns: (k as f64 * gap_ns) as u64,
            user: rng.below(n_users as u64) as u32,
            item: rng.below(n_items as u64) as u32,
            rating: (1 + rng.below(5)) as f32,
            key: format!("pb-{seed:x}-{k}"),
            retry: rng.chance(RETRY_SHARE),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> (Vec<u32>, Vec<u32>, Vec<Event>, Vec<u32>) {
        let hot = hot_set(seed, 25_000);
        let sweep = Sweep::new(seed, 25_000).take(600);
        let churn = churn_schedule(seed, 25_000, 5_000, CHURN_RATE, 300);
        let mut client = Rng::stream(seed, CLIENT);
        let picks = (0..100).map(|_| client.pick(&hot)).collect();
        (hot, sweep, churn, picks)
    }

    #[test]
    fn same_seed_regenerates_the_same_inputs() {
        assert_eq!(draws(7), draws(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (draws(7), draws(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn a_sweep_lap_visits_every_user_once() {
        let mut lap = Sweep::new(3, 25_000).take(25_000);
        lap.sort_unstable();
        assert!(lap.iter().enumerate().all(|(k, &u)| u == k as u32));
    }

    #[test]
    fn hot_set_is_distinct() {
        let mut hot = hot_set(5, 25_000);
        assert_eq!(hot.len(), HOT_SET);
        hot.sort_unstable();
        hot.dedup();
        assert_eq!(hot.len(), HOT_SET);
    }
}
