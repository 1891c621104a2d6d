//! Per-layer probes of a traced run: the tensor kernels at the serving
//! chunk's shapes (gradients at the training batch's), and one training step split into forward and loss
//! (`core`), backward (`autograd`) and the optimizer step (`nn`).

use crate::stats::median;
use crate::workload::{ensemble_config, mix, model_config, Bench};
use cae_autograd::{ParamStore, Tape};
use cae_core::Cae;
use cae_nn::{Adam, Optimizer};
use cae_serve::FLEET_BATCH;
use cae_tensor::{Padding, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Calls measured per kernel, after as many unmeasured warm-up calls.
const KERNEL_CALLS: usize = 200;
/// Training steps measured, after a few unmeasured ones.
const TRAIN_STEPS: usize = 20;

/// A named kernel call.
type Probe<'a> = (&'static str, Box<dyn Fn() + 'a>);

/// Median wall time of one call to `f`, in microseconds.
fn time_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..KERNEL_CALLS {
        f();
    }
    let times: Vec<f64> = (0..KERNEL_CALLS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn run(bench: &mut Bench) {
    kernels(bench);
    train_step(bench);
}

fn kernels(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(mix(bench.seed, 7000));
    let cfg = model_config(1);
    let (b, w, dp, k) = (FLEET_BATCH, cfg.window, cfg.embed_dim, cfg.kernel_size);
    let x = Tensor::rand_uniform(&[b, dp, w], -1.0, 1.0, &mut rng);
    let kernel = Tensor::rand_uniform(&[dp, dp, k], -0.3, 0.3, &mut rng);
    let q = Tensor::rand_uniform(&[b, w, dp], -1.0, 1.0, &mut rng);
    let e = Tensor::rand_uniform(&[b, w, dp], -1.0, 1.0, &mut rng);
    let s = Tensor::rand_uniform(&[b, w, w], -4.0, 4.0, &mut rng);
    // Kernel gradients only run in training, at its batch size.
    let tb = ensemble_config().batch_size;
    let input = Tensor::rand_uniform(&[tb, dp, w], -1.0, 1.0, &mut rng);
    let grad = Tensor::rand_uniform(&[tb, dp, w], -1.0, 1.0, &mut rng);
    let probes: [Probe; 5] = [
        (
            "tensor.conv1d_causal_us",
            Box::new(|| black_box(x.conv1d(&kernel, Padding::Causal)).recycle()),
        ),
        (
            "tensor.conv1d_same_us",
            Box::new(|| black_box(x.conv1d(&kernel, Padding::Same)).recycle()),
        ),
        (
            "tensor.bmm_nt_us",
            Box::new(|| black_box(q.bmm_nt(&e)).recycle()),
        ),
        (
            "tensor.softmax_last_us",
            Box::new(|| black_box(s.softmax_last()).recycle()),
        ),
        (
            "tensor.conv1d_kernel_grad_us",
            Box::new(|| {
                black_box(Tensor::conv1d_kernel_grad(
                    &input,
                    &grad,
                    k,
                    Padding::Causal,
                ))
                .recycle();
            }),
        ),
    ];
    let measured: Vec<(&'static str, f64)> = probes
        .iter()
        .map(|(name, f)| {
            let open = bench.tracer.enter(name, 0);
            let us = time_us(f);
            bench.tracer.exit(open);
            (*name, us)
        })
        .collect();
    for (name, us) in measured {
        bench.layer.push(crate::workload::Metric {
            name,
            value: us,
            unit: "us",
        });
    }
}

fn train_step(bench: &mut Bench) {
    let scaler = bench
        .live_model()
        .scaler()
        .expect("the ensemble re-scales its input")
        .clone();
    let train = scaler.transform(&bench.dataset().train);
    let (d, cfg, ec) = (train.dim(), model_config(train.dim()), ensemble_config());
    let w = cfg.window;
    let mut data = Vec::with_capacity(ec.batch_size * w * d);
    for i in 0..ec.batch_size {
        let start = i * ec.train_stride;
        data.extend_from_slice(&train.data()[start * d..(start + w) * d]);
    }
    let batch = Tensor::from_vec(data, &[ec.batch_size, w, d]);
    let mut rng = StdRng::seed_from_u64(mix(bench.seed, 8000));
    let mut store = ParamStore::new();
    let model = Cae::new(cfg, &mut store, &mut rng);
    let mut opt = Adam::new(&store, ec.learning_rate);
    let mut tape = Tape::new();
    let (mut forward, mut backward, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for it in 0..TRAIN_STEPS + 5 {
        tape.clear();
        let t0 = Instant::now();
        let open = bench.tracer.enter("core.train_step", it as u64);
        let noise = Tensor::rand_normal(batch.dims(), 0.0, ec.denoise_std, &mut rng);
        let noisy = batch.add(&noise);
        let out = model.forward(&mut tape, &store, &noisy);
        let target = model.clean_target_tensor(&mut tape, &store, &batch);
        let loss = tape.mse_loss(out.recon, &target);
        bench.tracer.exit(open);
        let t1 = Instant::now();
        let open = bench.tracer.enter("autograd.backward", it as u64);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        bench.tracer.exit(open);
        let t2 = Instant::now();
        let open = bench.tracer.enter("nn.adam_step", it as u64);
        store.clip_grad_norm(ec.grad_clip);
        opt.step(&mut store);
        bench.tracer.exit(open);
        let t3 = Instant::now();
        noise.recycle();
        noisy.recycle();
        target.recycle();
        if it >= 5 {
            forward.push((t1 - t0).as_secs_f64() * 1e3);
            backward.push((t2 - t1).as_secs_f64() * 1e3);
            step.push((t3 - t2).as_secs_f64() * 1e3);
        }
    }
    for (name, values) in [
        ("core.train_step_ms", forward),
        ("autograd.backward_ms", backward),
        ("nn.adam_step_ms", step),
    ] {
        bench.layer.push(crate::workload::Metric {
            name,
            value: median(&values),
            unit: "ms",
        });
    }
}
