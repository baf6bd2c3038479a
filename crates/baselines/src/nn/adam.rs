//! Adam optimizer (Kingma & Ba 2014 — the paper's ref \[35\]).
//!
//! One [`Adam`] instance owns first/second-moment buffers for a fixed set
//! of parameter tensors, addressed positionally; callers pass the same
//! tensor order every step (enforced by shape asserts).

/// Adam hyperparameters and per-tensor moment state.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical fuzz.
    pub eps: f64,
    /// Step counter (for bias correction).
    t: u64,
    /// First moments, one buffer per tensor.
    m: Vec<Vec<f64>>,
    /// Second moments.
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an optimizer for tensors of the given sizes.
    pub fn new(lr: f64, sizes: &[usize]) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            v: sizes.iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Applies one update step to all tensors.
    ///
    /// `pairs[i]` is `(params, grads)` for tensor `i`, in the same order as
    /// construction.
    pub fn step(&mut self, pairs: &mut [(&mut [f64], &[f64])]) {
        assert_eq!(pairs.len(), self.m.len(), "tensor count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (params, grads)) in pairs.iter_mut().enumerate() {
            assert_eq!(params.len(), self.m[i].len(), "tensor {i} size mismatch");
            assert_eq!(params.len(), grads.len(), "tensor {i} grad size mismatch");
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for j in 0..params.len() {
                let g = grads[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g * g;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                params[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// Clips a set of gradient tensors to a maximum global L2 norm; returns the
/// pre-clip norm. Standard practice for RNN training stability.
pub fn clip_global_norm(grads: &mut [&mut [f64]], max_norm: f64) -> f64 {
    let norm: f64 = grads.iter().map(|g| g.iter().map(|x| x * x).sum::<f64>()).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for x in g.iter_mut() {
                *x *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = (x - 3)², gradient 2(x - 3).
        let mut x = vec![0.0];
        let mut opt = Adam::new(0.1, &[1]);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut [(x.as_mut_slice(), g.as_slice())]);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn handles_multiple_tensors() {
        let mut a = vec![10.0, -10.0];
        let mut b = vec![5.0];
        let mut opt = Adam::new(0.5, &[2, 1]);
        for _ in 0..300 {
            let ga: Vec<f64> = a.iter().map(|&x| 2.0 * x).collect();
            let gb: Vec<f64> = b.iter().map(|&x| 2.0 * x).collect();
            opt.step(&mut [(a.as_mut_slice(), ga.as_slice()), (b.as_mut_slice(), gb.as_slice())]);
        }
        assert!(a.iter().all(|v| v.abs() < 0.05), "{a:?}");
        assert!(b.iter().all(|v| v.abs() < 0.05), "{b:?}");
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let mut g1 = vec![3.0, 4.0]; // norm 5
        let mut g2 = vec![0.0];
        let norm = clip_global_norm(&mut [g1.as_mut_slice(), g2.as_mut_slice()], 1.0);
        assert!((norm - 5.0).abs() < 1e-12);
        let new_norm: f64 = g1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_leaves_small_gradients() {
        let mut g = vec![0.1, 0.1];
        let before = g.clone();
        clip_global_norm(&mut [g.as_mut_slice()], 10.0);
        assert_eq!(g, before);
    }

    #[test]
    #[should_panic(expected = "tensor count mismatch")]
    fn tensor_count_checked() {
        let mut opt = Adam::new(0.1, &[1, 1]);
        let mut x = vec![0.0];
        let g = vec![1.0];
        opt.step(&mut [(x.as_mut_slice(), g.as_slice())]);
    }
}
