//! Optimizers.
//!
//! Optimizers keep per-parameter state keyed by position in the model's
//! `params_mut()` ordering, which is stable for a fixed architecture.

use crate::layers::Param;

/// A gradient-descent optimizer.
pub trait Optimizer: Send {
    /// Apply one update step to `params` using their accumulated gradients,
    /// then zero the gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Current learning rate (for schedules/reporting).
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (LR schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// SGD with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32) -> Sgd {
        assert!(lr > 0.0 && (0.0..1.0).contains(&momentum));
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            debug_assert_eq!(p.value.len(), v.len(), "parameter set changed shape");
            let g = p.grad.data();
            for (i, vel) in v.iter_mut().enumerate() {
                *vel = self.momentum * *vel - self.lr * g[i];
            }
            let pv = p.value.data_mut();
            for (x, vel) in pv.iter_mut().zip(v.iter()) {
                *x += *vel;
            }
            p.grad.fill(0.0);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba), the Keras default used by DonkeyCar's training.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Adam {
        Adam::with_betas(lr, 0.9, 0.999)
    }

    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Adam {
        assert!(lr > 0.0);
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-7, // Keras default epsilon
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        // analyze::allow(no-unannotated-narrowing): step count stays far below i32::MAX
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32); // analyze::allow(no-unannotated-narrowing): same bound as above
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            debug_assert_eq!(p.value.len(), m.len(), "parameter set changed shape");
            let g = p.grad.data();
            let pv = p.value.data_mut();
            for i in 0..pv.len() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.grad.fill(0.0);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimise f(x) = sum(x^2) from x0; returns final |x|.
    fn descend(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::from_vec(&[2], vec![3.0, -2.0]));
        for _ in 0..steps {
            // grad of sum(x^2) = 2x
            let g = p.value.scale(2.0);
            p.grad = g;
            opt.step(&mut [&mut p]);
        }
        p.value.norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(descend(&mut opt, 100) < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.01, 0.0);
        let mut momentum = Sgd::new(0.01, 0.9);
        let slow = descend(&mut plain, 30);
        let fast = descend(&mut momentum, 30);
        assert!(fast < slow, "momentum {fast} should beat plain {slow}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(descend(&mut opt, 200) < 1e-2);
    }

    #[test]
    fn step_zeroes_grads() {
        let mut p = Param::new(Tensor::from_vec(&[2], vec![1.0, 1.0]));
        p.grad = Tensor::from_vec(&[2], vec![0.5, 0.5]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn learning_rate_settable() {
        let mut opt = Sgd::new(0.1, 0.5);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step from zero state, update ≈ lr * sign(g).
        let mut p = Param::new(Tensor::from_vec(&[1], vec![0.0]));
        p.grad = Tensor::from_vec(&[1], vec![10.0]);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p]);
        assert!(
            (p.value.data()[0] + 0.1).abs() < 1e-3,
            "got {}",
            p.value.data()[0]
        );
    }
}
