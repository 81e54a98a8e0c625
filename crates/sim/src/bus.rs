//! Bus naming conventions shared by the generators and testbenches.
//!
//! Multi-bit ports are named `{prefix}{bit}` (e.g. `a0 … a15`); these
//! helpers gather them in bit order and encode/decode integers.

use optpower_netlist::{CellId, Logic, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Primary-input cells forming the bus `{prefix}{0..}`, LSB first.
///
/// Returns an empty vector if no `{prefix}0` input exists.
pub fn bus_inputs(netlist: &Netlist, prefix: &str) -> Vec<CellId> {
    collect_bus(netlist, netlist.primary_inputs(), prefix)
}

/// Primary-output cells forming the bus `{prefix}{0..}`, LSB first.
pub fn bus_outputs(netlist: &Netlist, prefix: &str) -> Vec<CellId> {
    collect_bus(netlist, netlist.primary_outputs(), prefix)
}

fn collect_bus(netlist: &Netlist, ports: &[CellId], prefix: &str) -> Vec<CellId> {
    let mut bus = Vec::new();
    loop {
        let wanted = format!("{prefix}{}", bus.len());
        match ports.iter().find(|&&id| netlist.cell(id).name == *wanted) {
            Some(&id) => bus.push(id),
            None => break,
        }
    }
    bus
}

/// Encodes the low `width` bits of `value` as logic levels, LSB first.
pub fn encode_bus(value: u64, width: usize) -> Vec<Logic> {
    (0..width)
        .map(|i| Logic::from_bool((value >> i) & 1 == 1))
        .collect()
}

/// Decodes logic levels (LSB first) into an integer; `None` if any bit
/// is unknown.
pub fn decode_bus(bits: &[Logic]) -> Option<u64> {
    let mut out = 0u64;
    for (i, &bit) in bits.iter().enumerate() {
        match bit.to_bool() {
            Some(true) => out |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(out)
}

/// The random operand stream behind [`crate::measure_activity`] and
/// the per-lane stimulus of [`crate::BitParallelSim`].
///
/// This is the **single** definition of the stimulus sequence: for a
/// given `(seed, a_width, b_width)` every engine — `ZeroDelay`, `Timed`
/// and lane 0 of `BitParallel` — consumes exactly this stream, so
/// activity measurements are comparable across engines by construction.
/// Each item draws one raw `u64` for `a`, then one for `b`, and masks
/// them to the bus widths (the draw order is part of the contract).
#[derive(Debug, Clone)]
pub struct StimulusGen {
    rng: StdRng,
    a_mask: u64,
    b_mask: u64,
}

impl StimulusGen {
    /// A generator for `a`/`b` buses of the given widths.
    pub fn new(seed: u64, a_width: u32, b_width: u32) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            a_mask: width_mask(a_width),
            b_mask: width_mask(b_width),
        }
    }

    /// The next `(a, b)` operand pair.
    pub fn next_item(&mut self) -> (u64, u64) {
        let a = self.rng.gen::<u64>() & self.a_mask;
        let b = self.rng.gen::<u64>() & self.b_mask;
        (a, b)
    }
}

/// All-ones mask for a bus of `width` bits (saturating at 64).
pub fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// In-place 64×64 bit-matrix transpose (LSB-first): on return, bit `r`
/// of `block[c]` equals bit `c` of the input's `block[r]`.
///
/// This is the lane↔bit pivot of the plane engines: `block[lane] =`
/// one operand value per lane turns into `block[bit] =` one 64-lane
/// plane word per bus bit (and back, the transpose is its own
/// inverse). The butterfly swaps half-blocks at strides 32, 16, …, 1 —
/// `6 * 32` word-sized exchanges instead of the 4096 single-bit moves
/// of a naive pivot — which keeps stimulus application a small cost
/// next to plane evaluation (the pivot volume is the same at every
/// plane width, so it would otherwise cap the wide engines' speedup).
pub fn transpose64(block: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> j) ^ block[k + j]) & m;
            block[k] ^= t << j;
            block[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Most stimulus lanes one measurement may use: the domain on which
/// [`lane_seed`] promises distinct streams (see its docs).
pub const MAX_STIMULUS_LANES: u32 = 512;

/// The stimulus seed of lane `lane` for a measurement seeded with
/// `seed`.
///
/// Lane 0 *is* the base seed, so the scalar engines (which consume one
/// stream) and lane 0 of the plane engines see identical operands.
/// Higher lanes get SplitMix64-style mixed seeds, giving decorrelated
/// streams per measurement.
///
/// # Domain
///
/// The mixing function is defined for the full `u32` lane range, but
/// the *contract* — lane 0 = base seed, no collisions among the lanes
/// of one measurement — is only claimed (and tested, see
/// `lane_seed_contract`) for `lane <` [`MAX_STIMULUS_LANES`] (512), the
/// widest plane any engine exposes ([`crate::BitParallelSim512`]) and
/// the most lanes a pooled timed measurement accepts. Widths nest by
/// construction: a 512-lane measurement's chunk `c` uses exactly the
/// seeds `lane_seed(seed, 64c..64c+64)` that a 64-lane run of that
/// chunk would use, which is what makes wide runs bit-identical to
/// chunked narrow runs. Growing the engine past 512 lanes requires
/// extending the collision test over the new domain first.
pub fn lane_seed(seed: u64, lane: u32) -> u64 {
    if lane == 0 {
        return seed;
    }
    let mut z = seed ^ u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::{CellKind, NetlistBuilder};

    #[test]
    fn stimulus_is_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<(u64, u64)> {
            let mut g = StimulusGen::new(seed, 16, 16);
            (0..32).map(|_| g.next_item()).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn stimulus_respects_bus_widths() {
        let mut g = StimulusGen::new(7, 5, 64);
        let mut widest_b = 0u64;
        for _ in 0..200 {
            let (a, b) = g.next_item();
            assert!(a < 32, "a={a} exceeds 5 bits");
            widest_b |= b;
        }
        assert!(widest_b > u64::from(u32::MAX), "64-bit bus uses high bits");
    }

    #[test]
    fn lane_seed_contract() {
        // The contract covers the widest plane (512 lanes): lane 0 is
        // the base seed and no two lanes of one measurement collide.
        for base in [0u64, 1, 42, 1234, u64::MAX] {
            assert_eq!(lane_seed(base, 0), base, "lane 0 is the base seed");
            let seeds: std::collections::HashSet<u64> = (0..MAX_STIMULUS_LANES)
                .map(|l| lane_seed(base, l))
                .collect();
            assert_eq!(
                seeds.len(),
                MAX_STIMULUS_LANES as usize,
                "lanes must not collide (base {base})"
            );
        }
        assert_ne!(lane_seed(1234, 1), lane_seed(1235, 1));
    }

    #[test]
    fn transpose64_matches_naive_pivot_and_self_inverts() {
        // Deterministic pseudo-random block.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut block = [0u64; 64];
        for w in block.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = state ^ (state >> 29);
        }
        let original = block;
        let mut naive = [0u64; 64];
        for (r, row) in naive.iter_mut().enumerate() {
            for (c, &w) in original.iter().enumerate() {
                *row |= ((w >> r) & 1) << c;
            }
        }
        transpose64(&mut block);
        assert_eq!(block, naive);
        transpose64(&mut block);
        assert_eq!(block, original, "transpose is its own inverse");
    }

    #[test]
    fn width_mask_table() {
        assert_eq!(width_mask(0), 0);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(16), 0xFFFF);
        assert_eq!(width_mask(64), u64::MAX);
        assert_eq!(width_mask(200), u64::MAX);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for v in [0u64, 1, 0xABCD, 0xFFFF, 0x1234_5678] {
            assert_eq!(decode_bus(&encode_bus(v, 32)), Some(v));
        }
    }

    #[test]
    fn decode_rejects_x() {
        let mut bits = encode_bus(5, 4);
        bits[2] = Logic::X;
        assert_eq!(decode_bus(&bits), None);
    }

    #[test]
    fn collects_in_bit_order() {
        let mut b = NetlistBuilder::new("bus");
        // Deliberately create out of order: a1, a0, a2.
        let a1 = b.add_input("a1");
        let a0 = b.add_input("a0");
        let a2 = b.add_input("a2");
        let s = b.add_cell(CellKind::Xor3, &[a0, a1, a2]);
        b.add_output("p0", s);
        let nl = b.build().unwrap();
        let bus = bus_inputs(&nl, "a");
        assert_eq!(bus.len(), 3);
        assert_eq!(nl.cell(bus[0]).name, "a0");
        assert_eq!(nl.cell(bus[1]).name, "a1");
        assert_eq!(nl.cell(bus[2]).name, "a2");
        assert_eq!(bus_outputs(&nl, "p").len(), 1);
        assert!(bus_inputs(&nl, "zz").is_empty());
    }
}
