//! Order statistics and small helpers shared by the workloads.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `1/parts` share of `items` (at least one) with the smallest
/// `cost`.
///
/// On a shared host, other load only ever adds wall time to a
/// deterministic rep, and it comes in phases of seconds; the fastest
/// reps are the ones it disturbed least, so their statistics estimate
/// the code's own cost far more steadily than statistics over all reps.
pub fn least_disturbed<T>(items: &[T], parts: usize, cost: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut v: Vec<&T> = items.iter().collect();
    v.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    v.truncate(items.len().div_ceil(parts));
    v
}

/// The smallest of `samples`, each a duration.
///
/// Set-up times use it: a run has only a few dozen set-ups, and on a
/// shared host each runs in a fast or a slow mode, so even the fastest
/// quarter of a run's set-ups can lie in either.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of a power-of-two histogram given as
/// `(upper_bound_exclusive, count)` buckets (bucket `[b/2, b)`),
/// interpolated linearly inside the bucket that holds the rank.
pub fn histogram_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut below = 0u64;
    for &(upper, n) in buckets {
        if (below + n) as f64 >= rank {
            let lower = (upper / 2) as f64;
            let within = (rank - below as f64) / n as f64;
            return lower + (upper as f64 - lower) * within;
        }
        below += n;
    }
    buckets.last().map_or(0.0, |b| b.0 as f64)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// xorshift64*: the traced loops' sampling coin.
pub struct Coin(u64);

impl Coin {
    pub fn new(seed: u64) -> Self {
        Coin(seed | 1)
    }

    /// True with probability 1/64.
    pub fn flip(&mut self) -> bool {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn histogram_quantile_stays_in_bucket() {
        // 10 samples in [512, 1024), 10 in [1024, 2048).
        let b = [(1024, 10), (2048, 10)];
        let p50 = histogram_quantile(&b, 0.5);
        assert_eq!(p50, 1024.0);
        let p75 = histogram_quantile(&b, 0.75);
        assert!(p75 > 1024.0 && p75 < 2048.0);
    }

    #[test]
    fn coin_is_roughly_one_in_64() {
        let mut c = Coin::new(7);
        let hits = (0..640_000).filter(|_| c.flip()).count();
        assert!((8_000..12_000).contains(&hits), "{hits}");
    }
}
