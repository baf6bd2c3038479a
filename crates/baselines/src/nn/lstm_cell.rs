//! The LSTM cell (Hochreiter & Schmidhuber 1997 — the paper's ref \[32\])
//! with full backpropagation-through-time support.
//!
//! Gate layout in the stacked weight matrices is `[input, forget, cell,
//! output]`, each block of `hidden` rows. The forward pass returns a
//! [`LstmStepCache`] holding every activation the backward pass needs;
//! the trainer keeps one cache per timestep and walks them in reverse.

use rand::rngs::StdRng;

use super::matrix::Mat;
use super::sigmoid;

/// LSTM cell parameters.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input weights, `4·hidden × input`.
    pub wx: Mat,
    /// Recurrent weights, `4·hidden × hidden`.
    pub wh: Mat,
    /// Gate biases, length `4·hidden`.
    pub b: Vec<f64>,
    /// Hidden size.
    pub hidden: usize,
    /// Input size.
    pub input: usize,
}

/// Recurrent state `(h, c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden vector.
    pub h: Vec<f64>,
    /// Cell vector.
    pub c: Vec<f64>,
}

impl LstmState {
    /// Zero state.
    pub fn zeros(hidden: usize) -> Self {
        Self { h: vec![0.0; hidden], c: vec![0.0; hidden] }
    }
}

/// Everything the backward pass needs about one forward step.
#[derive(Debug, Clone)]
pub struct LstmStepCache {
    /// The input vector.
    pub x: Vec<f64>,
    /// Previous hidden state.
    pub h_prev: Vec<f64>,
    /// Previous cell state.
    pub c_prev: Vec<f64>,
    /// Gate activations `i, f, g, o`, each `hidden` long, concatenated.
    pub gates: Vec<f64>,
    /// New cell state.
    pub c: Vec<f64>,
    /// `tanh(c)`.
    pub tanh_c: Vec<f64>,
}

/// Gradients of the cell parameters (same shapes as the parameters).
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// d/dWx.
    pub wx: Mat,
    /// d/dWh.
    pub wh: Mat,
    /// d/db.
    pub b: Vec<f64>,
}

impl LstmGrads {
    /// Zero gradients matching a cell's shapes.
    pub fn zeros(cell: &LstmCell) -> Self {
        Self {
            wx: Mat::zeros(4 * cell.hidden, cell.input),
            wh: Mat::zeros(4 * cell.hidden, cell.hidden),
            b: vec![0.0; 4 * cell.hidden],
        }
    }

    /// Clears all gradients.
    pub fn fill_zero(&mut self) {
        self.wx.fill_zero();
        self.wh.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl LstmCell {
    /// Xavier-initialized cell with the forget-gate bias set to 1
    /// (the standard trick that stabilizes early training).
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            wx: Mat::xavier(4 * hidden, input, rng),
            wh: Mat::xavier(4 * hidden, hidden, rng),
            b,
            hidden,
            input,
        }
    }

    /// One forward step: consumes `x` and the previous state, returns the
    /// new state and the cache for backward.
    pub fn forward(&self, x: &[f64], prev: &LstmState) -> (LstmState, LstmStepCache) {
        let h = self.hidden;
        debug_assert_eq!(x.len(), self.input);
        // Pre-activations z = Wx·x + Wh·h_prev + b.
        let mut z = self.b.clone();
        self.wx.matvec_acc(x, &mut z);
        self.wh.matvec_acc(&prev.h, &mut z);
        // Gate nonlinearities.
        let mut gates = vec![0.0; 4 * h];
        for j in 0..h {
            gates[j] = sigmoid(z[j]); // i
            gates[h + j] = sigmoid(z[h + j]); // f
            gates[2 * h + j] = z[2 * h + j].tanh(); // g
            gates[3 * h + j] = sigmoid(z[3 * h + j]); // o
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for j in 0..h {
            c[j] = gates[h + j] * prev.c[j] + gates[j] * gates[2 * h + j];
            tanh_c[j] = c[j].tanh();
            h_new[j] = gates[3 * h + j] * tanh_c[j];
        }
        let state = LstmState { h: h_new, c: c.clone() };
        let cache = LstmStepCache {
            x: x.to_vec(),
            h_prev: prev.h.clone(),
            c_prev: prev.c.clone(),
            gates,
            c,
            tanh_c,
        };
        (state, cache)
    }

    /// One backward step. `dh` and `dc` are the gradients flowing into this
    /// step's outputs (from the loss and from the *next* step). Returns the
    /// gradients flowing to the previous state; accumulates parameter
    /// gradients into `grads` and writes the input gradient into `dx`.
    pub fn backward(
        &self,
        cache: &LstmStepCache,
        dh: &[f64],
        dc_in: &[f64],
        grads: &mut LstmGrads,
        dx: &mut [f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let h = self.hidden;
        let (gi, gf, gg, go) = (
            &cache.gates[..h],
            &cache.gates[h..2 * h],
            &cache.gates[2 * h..3 * h],
            &cache.gates[3 * h..],
        );
        let mut dz = vec![0.0; 4 * h];
        let mut dc_prev = vec![0.0; h];
        for j in 0..h {
            let do_ = dh[j] * cache.tanh_c[j];
            let dc = dh[j] * go[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]) + dc_in[j];
            let di = dc * gg[j];
            let df = dc * cache.c_prev[j];
            let dg = dc * gi[j];
            dc_prev[j] = dc * gf[j];
            dz[j] = di * gi[j] * (1.0 - gi[j]);
            dz[h + j] = df * gf[j] * (1.0 - gf[j]);
            dz[2 * h + j] = dg * (1.0 - gg[j] * gg[j]);
            dz[3 * h + j] = do_ * go[j] * (1.0 - go[j]);
        }
        // Parameter gradients.
        grads.wx.add_outer(&dz, &cache.x);
        grads.wh.add_outer(&dz, &cache.h_prev);
        for (gb, &d) in grads.b.iter_mut().zip(&dz) {
            *gb += d;
        }
        // Gradients to inputs and previous hidden state.
        dx.iter_mut().for_each(|v| *v = 0.0);
        self.wx.matvec_t_acc(&dz, dx);
        let mut dh_prev = vec![0.0; h];
        self.wh.matvec_t_acc(&dz, &mut dh_prev);
        (dh_prev, dc_prev)
    }

    /// Flattened views of all parameter tensors, paired with matching
    /// gradient views — used by the optimizer.
    pub fn params_and_grads<'a>(
        &'a mut self,
        grads: &'a LstmGrads,
    ) -> Vec<(&'a mut [f64], &'a [f64])> {
        vec![
            (self.wx.data.as_mut_slice(), grads.wx.data.as_slice()),
            (self.wh.data.as_mut_slice(), grads.wh.data.as_slice()),
            (self.b.as_mut_slice(), grads.b.as_slice()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Numerical gradient check of the full cell: the definitive test for
    /// hand-written BPTT.
    #[test]
    fn gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(7);
        let (input, hidden) = (3, 4);
        let cell = LstmCell::new(input, hidden, &mut rng);
        let x = [0.3, -0.7, 0.5];
        let prev = LstmState { h: vec![0.1, -0.2, 0.05, 0.3], c: vec![-0.4, 0.2, 0.6, -0.1] };
        // Scalar loss: sum of h (so dh = 1, dc = 0).
        let loss = |cell: &LstmCell| -> f64 {
            let (s, _) = cell.forward(&x, &prev);
            s.h.iter().sum()
        };
        let (_, cache) = cell.forward(&x, &prev);
        let mut grads = LstmGrads::zeros(&cell);
        let mut dx = vec![0.0; input];
        let dh = vec![1.0; hidden];
        let dc = vec![0.0; hidden];
        let (dh_prev, _dc_prev) = cell.backward(&cache, &dh, &dc, &mut grads, &mut dx);

        let eps = 1e-6;
        // Check a sample of Wx entries.
        let mut cell_pert = cell.clone();
        for &idx in &[0usize, 5, 11, 4 * 4 * 3 - 1] {
            let orig = cell_pert.wx.data[idx];
            cell_pert.wx.data[idx] = orig + eps;
            let up = loss(&cell_pert);
            cell_pert.wx.data[idx] = orig - eps;
            let down = loss(&cell_pert);
            cell_pert.wx.data[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - grads.wx.data[idx]).abs() < 1e-6,
                "Wx[{idx}]: numerical {num} vs analytic {}",
                grads.wx.data[idx]
            );
        }
        // Check Wh entries.
        for &idx in &[0usize, 7, 4 * 4 * 4 - 1] {
            let orig = cell_pert.wh.data[idx];
            cell_pert.wh.data[idx] = orig + eps;
            let up = loss(&cell_pert);
            cell_pert.wh.data[idx] = orig - eps;
            let down = loss(&cell_pert);
            cell_pert.wh.data[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - grads.wh.data[idx]).abs() < 1e-6,
                "Wh[{idx}]: numerical {num} vs analytic {}",
                grads.wh.data[idx]
            );
        }
        // Check biases.
        for &idx in &[0usize, 6, 15] {
            let orig = cell_pert.b[idx];
            cell_pert.b[idx] = orig + eps;
            let up = loss(&cell_pert);
            cell_pert.b[idx] = orig - eps;
            let down = loss(&cell_pert);
            cell_pert.b[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - grads.b[idx]).abs() < 1e-6,
                "b[{idx}]: numerical {num} vs analytic {}",
                grads.b[idx]
            );
        }
        // Check dx numerically.
        let mut x_pert = x;
        for idx in 0..input {
            let orig = x_pert[idx];
            x_pert[idx] = orig + eps;
            let up: f64 = cell.forward(&x_pert, &prev).0.h.iter().sum();
            x_pert[idx] = orig - eps;
            let down: f64 = cell.forward(&x_pert, &prev).0.h.iter().sum();
            x_pert[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - dx[idx]).abs() < 1e-6, "dx[{idx}]");
        }
        // Check dh_prev numerically.
        let mut prev_pert = prev.clone();
        #[allow(clippy::needless_range_loop)]
        for idx in 0..hidden {
            let orig = prev_pert.h[idx];
            prev_pert.h[idx] = orig + eps;
            let up: f64 = cell.forward(&x, &prev_pert).0.h.iter().sum();
            prev_pert.h[idx] = orig - eps;
            let down: f64 = cell.forward(&x, &prev_pert).0.h.iter().sum();
            prev_pert.h[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - dh_prev[idx]).abs() < 1e-6, "dh_prev[{idx}]");
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(2, 3, &mut rng);
        assert!(cell.b[3..6].iter().all(|&v| v == 1.0));
        assert!(cell.b[..3].iter().all(|&v| v == 0.0));
        assert!(cell.b[6..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_state_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = LstmCell::new(2, 5, &mut rng);
        let (s, cache) = cell.forward(&[1.0, -1.0], &LstmState::zeros(5));
        assert_eq!(s.h.len(), 5);
        assert_eq!(s.c.len(), 5);
        assert_eq!(cache.gates.len(), 20);
        // h = o * tanh(c) is bounded in (-1, 1).
        assert!(s.h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_state_gives_tanh_bias_dynamics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cell = LstmCell::new(1, 2, &mut rng);
        // Force all weights to zero: output depends on biases only.
        cell.wx.fill_zero();
        cell.wh.fill_zero();
        let (s, _) = cell.forward(&[0.0], &LstmState::zeros(2));
        // i = σ(0) = 0.5, g = tanh(0) = 0, so c = f·0 + 0.5·0 = 0, h = 0.
        assert!(s.h.iter().all(|&v| v.abs() < 1e-12));
        assert!(s.c.iter().all(|&v| v.abs() < 1e-12));
    }
}
