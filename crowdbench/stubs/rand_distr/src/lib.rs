//! Offline stand-in for `rand_distr` 0.4: `Beta` and `LogNormal`, the
//! two distributions the worker-pool generator draws from.

use rand::{Rng, RngCore};

pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError;

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid distribution parameter")
    }
}

impl std::error::Error for ParamError {}

/// Standard normal by Box–Muller (one of the pair is discarded: draws
/// stay a pure function of the stream position).
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Gamma(shape, 1) by Marsaglia–Tsang, with the `shape < 1` boost.
fn gamma<R: RngCore + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, ParamError> {
        if sigma.is_finite() && sigma >= 0.0 && mu.is_finite() {
            Ok(LogNormal { mu, sigma })
        } else {
            Err(ParamError)
        }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    pub fn new(alpha: f64, beta: f64) -> Result<Beta, ParamError> {
        if alpha > 0.0 && beta > 0.0 && alpha.is_finite() && beta.is_finite() {
            Ok(Beta { alpha, beta })
        } else {
            Err(ParamError)
        }
    }
}

impl Distribution<f64> for Beta {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = gamma(rng, self.alpha);
        let y = gamma(rng, self.beta);
        x / (x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_mean_is_alpha_over_sum() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Beta::new(2.0, 8.0).unwrap();
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.2).abs() < 0.01, "{mean}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let mut v: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!((median / 3.0f64.exp() - 1.0).abs() < 0.03, "{median}");
    }
}
