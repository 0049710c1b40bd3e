//! Gaussian Non-negative Matrix Factorization (paper Eq. 6, §6.4).
//!
//! GNMF factorizes the rating matrix `X (users × items)` into
//! `V (users × k)` and `U (k × items)` such that `X ≈ V·U`, by alternating
//! multiplicative updates:
//!
//! ```text
//! U ← U * (Vᵀ × X) / (Vᵀ × V × U)
//! V ← V * (X × Uᵀ) / (V × U × Uᵀ)
//! ```
//!
//! Each iteration is one query over the engine; Fig. 14 accumulates
//! per-iteration elapsed times and shuffled bytes for ten iterations.

use fuseme::session::{RunReport, Session, SessionError};
use fuseme_matrix::gen;

/// A configured GNMF instance.
#[derive(Debug, Clone, Copy)]
pub struct Gnmf {
    /// Users (rows of `X`).
    pub users: usize,
    /// Items (columns of `X`).
    pub items: usize,
    /// Factor dimension `k` (200 or 1000 in §6.4).
    pub factor: usize,
    /// Block edge.
    pub block_size: usize,
    /// Density of `X`.
    pub density: f64,
}

/// Per-iteration measurements (one point of Fig. 14's accumulated series).
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Simulated seconds for this iteration.
    pub sim_secs: f64,
    /// Bytes shuffled during this iteration (consolidation + aggregation).
    pub comm_bytes: u64,
}

impl Gnmf {
    /// The per-iteration update script. Eq. 6 writes both updates against
    /// the previous iterates; like standard GNMF implementations we apply
    /// them sequentially (the `V` update reads the fresh `Un`), which keeps
    /// the multiplicative updates monotone. The operator mix per iteration
    /// — four multiplications, two element-wise pairs, two transposes — is
    /// identical either way.
    ///
    /// Both denominators carry `+ 1e-9`, as common GNMF implementations
    /// guard them. Eq. 6 has no such term, but without it a user with no
    /// ratings gets a zero row in `V` from the first update and `0 / 0` in
    /// the next, and the factors turn NaN.
    pub fn update_script() -> &'static str {
        "Un = U * (t(V) %*% X) / ((t(V) %*% V) %*% U + 1e-9)\n\
         Vn = V * (X %*% t(Un)) / (V %*% (Un %*% t(Un)) + 1e-9)\n\
         output Un, Vn"
    }

    /// Binds `X` (ratings) and positive random factors `U`, `V` into the
    /// session.
    pub fn bind_inputs(&self, session: &mut Session, seed: u64) -> Result<(), SessionError> {
        let x = gen::ratings(self.users, self.items, self.block_size, self.density, seed)
            .map_err(|e| SessionError::Data(e.to_string()))?;
        let v = gen::dense_uniform(self.users, self.factor, self.block_size, 0.1, 1.0, seed + 1)
            .map_err(|e| SessionError::Data(e.to_string()))?;
        let u = gen::dense_uniform(self.factor, self.items, self.block_size, 0.1, 1.0, seed + 2)
            .map_err(|e| SessionError::Data(e.to_string()))?;
        session.bind("X", x);
        session.bind("V", v);
        session.bind("U", u);
        Ok(())
    }

    /// Runs one update iteration, rebinding `U` and `V`.
    pub fn iterate(&self, session: &mut Session) -> Result<RunReport, SessionError> {
        session.run_and_rebind(Self::update_script(), &[("U", 0), ("V", 1)])
    }

    /// Runs `iters` iterations, returning per-iteration measurements.
    pub fn run(
        &self,
        session: &mut Session,
        iters: usize,
    ) -> Result<Vec<IterationStats>, SessionError> {
        let mut out = Vec::with_capacity(iters);
        for _ in 0..iters {
            let report = self.iterate(session)?;
            out.push(IterationStats {
                sim_secs: report.stats.sim_secs,
                comm_bytes: report.stats.comm.total(),
            });
        }
        Ok(out)
    }

    /// Frobenius reconstruction error `‖X − V·U‖²` over the current
    /// factors; a sanity metric for convergence tests.
    pub fn reconstruction_error(&self, session: &mut Session) -> Result<f64, SessionError> {
        let report = session.run_script("err = sum((X - V %*% U) ^ 2)")?;
        report.outputs[0]
            .get(0, 0)
            .map_err(|e| SessionError::Data(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme::prelude::*;
    #[allow(unused_imports)]
    use std::sync::Arc;

    fn small() -> Gnmf {
        Gnmf {
            users: 60,
            items: 40,
            factor: 10,
            block_size: 10,
            density: 0.2,
        }
    }

    fn session() -> Session {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        Session::new(Engine::fuseme(cc))
    }

    #[test]
    fn iterations_decrease_reconstruction_error() {
        let g = small();
        let mut s = session();
        g.bind_inputs(&mut s, 42).unwrap();
        let before = g.reconstruction_error(&mut s).unwrap();
        g.run(&mut s, 3).unwrap();
        let after = g.reconstruction_error(&mut s).unwrap();
        assert!(
            after < before,
            "GNMF must reduce the loss: {before} -> {after}"
        );
    }

    #[test]
    fn factors_keep_shape_across_iterations() {
        let g = small();
        let mut s = session();
        g.bind_inputs(&mut s, 7).unwrap();
        g.run(&mut s, 2).unwrap();
        let u = s.matrix("U").unwrap();
        let v = s.matrix("V").unwrap();
        assert_eq!((u.shape().rows, u.shape().cols), (10, 40));
        assert_eq!((v.shape().rows, v.shape().cols), (60, 10));
    }

    #[test]
    fn per_iteration_stats_populated() {
        let g = small();
        let mut s = session();
        g.bind_inputs(&mut s, 9).unwrap();
        let stats = g.run(&mut s, 2).unwrap();
        assert_eq!(stats.len(), 2);
        for it in stats {
            assert!(it.sim_secs > 0.0);
            assert!(it.comm_bytes > 0);
        }
    }

    /// Stock GNMF at Fig. 14's YahooMusic shape at scale 250 (7292 × 546,
    /// k = 12, 4 × 4 blocks) on Fig. 14's cluster. About a fifth of the
    /// users have no ratings, so the first `V` update zeroes their rows,
    /// and unguarded denominators divide 0 by 0 for them from the second
    /// iteration on. Guarded, the factors and the loss stay finite.
    #[test]
    fn yahoo_music_shape_stays_finite() {
        use crate::datasets::YAHOO_MUSIC;
        let scale = fuseme_bench::Scale::default_scale();
        let (users, items) = YAHOO_MUSIC.scaled_dims(scale.divisor, scale.block_size());
        let g = Gnmf {
            users,
            items,
            factor: scale.factor(200),
            block_size: scale.block_size(),
            density: YAHOO_MUSIC.density(),
        };
        assert_eq!((users, items, g.factor, g.block_size), (7292, 546, 12, 4));
        let mut s = Session::new(Engine::fuseme(scale.factor_cluster(8)));
        g.bind_inputs(&mut s, 1).unwrap();
        for iteration in 1..=3 {
            g.iterate(&mut s).unwrap();
            for name in ["U", "V"] {
                let values = s.matrix(name).unwrap().to_dense_vec();
                assert!(
                    values.iter().all(|v| v.is_finite()),
                    "{name} after iteration {iteration}"
                );
            }
            let loss = g.reconstruction_error(&mut s).unwrap();
            assert!(loss.is_finite(), "loss {loss} after iteration {iteration}");
        }
    }

    #[test]
    fn all_engines_converge_identically() {
        // The update is deterministic: FuseME and the SystemDS-like engine
        // must produce the same factors after an iteration.
        let g = small();
        let run_engine = |engine: Engine| -> Vec<f64> {
            let mut s = Session::new(engine);
            g.bind_inputs(&mut s, 11).unwrap();
            g.iterate(&mut s).unwrap();
            s.matrix("U").unwrap().to_dense_vec()
        };
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        let a = run_engine(Engine::fuseme(cc));
        let b = run_engine(Engine::systemds_like(cc));
        let c = run_engine(Engine::distme_like(cc));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
            assert!((x - z).abs() <= 1e-9 * x.abs().max(1.0));
        }
    }
}
