//! The reference workload that rescales the gated timings to one host
//! speed.
//!
//! The benchmark runs on shared two-vCPU hosts whose speed for
//! allocation-heavy code drifts by up to 2x over minutes as neighbours
//! come and go, far more than any bound a timing could be gated on. The
//! campaign, its set-up and this kernel slow down together: over twenty
//! 20-second windows on the reference host the kernel's time correlated
//! with a `dlx` campaign's at 0.97, and dividing by it cut the windows'
//! spread from 0.49 to 0.10. A gated timing is therefore reported as
//! `wall clock * NOMINAL_S / kernel time`, the ratio of two times taken
//! in the same run, expressed in seconds of the reference host at its
//! quiet speed.
//!
//! The kernel mimics the engines' memory behaviour: short-lived vectors
//! built every step, and lookups in a small hash map. Its code is frozen:
//! changing it changes every rescaled timing, so a change here must be
//! its own change and the baseline measured again.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host (Intel Xeon, 2 vCPUs)
/// in its quiet state.
pub const NOMINAL_S: f64 = 2.8e-3;

/// Kernel runs per [`Reference::sample`] call.
const BLOCK: usize = 25;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 400 steps, each building 64 eight-word vectors and folding them
/// through an 8192-slot map (a fixed hasher keeps the work identical
/// from process to process).
fn kernel(seed: u64) -> u64 {
    let mut map: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = seed;
    for step in 0..400u64 {
        let mut nets: Vec<Vec<u64>> = Vec::with_capacity(64);
        for net in 0..64u64 {
            let mut bits = Vec::with_capacity(8);
            for bit in 0..8u64 {
                acc = mix(acc ^ (net << 8) ^ bit ^ step);
                bits.push(acc);
            }
            nets.push(bits);
        }
        for v in &nets {
            *map.entry((v[0] % 8192) as u32).or_insert(0) ^= v[1];
            acc ^= map.get(&((v[2] % 8192) as u32)).copied().unwrap_or(0);
        }
    }
    acc
}

/// Kernel timings collected over one run, one median per block.
#[derive(Debug, Default)]
pub struct Reference {
    blocks: Vec<f64>,
}

impl Reference {
    /// Times one block of kernel runs and returns its index. Call it
    /// between the measured calls, so that the blocks bracket each one.
    pub fn sample(&mut self) -> usize {
        let times: Vec<f64> = (0..BLOCK)
            .map(|i| {
                let t0 = Instant::now();
                black_box(kernel(black_box(i as u64)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.blocks.push(crate::median(&times));
        self.blocks.len() - 1
    }

    /// Median kernel time of the run.
    pub fn seconds(&self) -> f64 {
        crate::median(&self.blocks)
    }

    /// Rescales `wall`, measured right after block `i`, to the reference
    /// host's quiet speed.
    pub fn at(&self, i: usize, wall: f64) -> f64 {
        wall * NOMINAL_S / self.blocks[i]
    }

    /// Rescales `wall`, measured between blocks `i` and `i + 1`, by their
    /// mean.
    pub fn between(&self, i: usize, wall: f64) -> f64 {
        wall * NOMINAL_S / ((self.blocks[i] + self.blocks[i + 1]) / 2.0)
    }
}
