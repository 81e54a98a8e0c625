//! The wide-plane bit-parallel zero-delay engine (64/256/512 lanes).
//!
//! Packs `64 * W` *independent* stimulus streams into one
//! [`WideWord<W>`] per net — `W` chunks of `u64`, one stimulus lane per
//! bit — and evaluates every cell's three-valued semantics with plain
//! bitwise ops, so one topological pass advances an entire plane of
//! simulations at once. All operations are lane-local (no carries, no
//! shifts across lanes or chunks), so lane `L` of a [`WidePlaneSim`]
//! run is *bit-identical* — values and transition counts — to a scalar
//! [`crate::ZeroDelaySim`] run driven with lane `L`'s stimulus, and a
//! `W`-chunk run is bit-identical to `W` independent 64-lane runs.
//! `tests/sim_differential.rs` locks both equivalences down over random
//! netlists and the full multiplier suite.
//!
//! Supported plane widths are `W ∈ {1, 4, 8}` (64, 256 and 512 lanes),
//! exposed as the [`BitParallelSim`], [`BitParallelSim256`] and
//! [`BitParallelSim512`] aliases and the matching
//! [`crate::Engine::BitParallel`]/[`crate::Engine::BitParallel256`]/
//! [`crate::Engine::BitParallel512`] measurement engines. Nothing in
//! the core is specific to those widths — the eval loops are written
//! over `[u64; W]` chunks so the compiler unrolls and vectorizes them
//! per width — but the set is closed on purpose: every width is locked
//! by the differential suite before an engine name exposes it (see
//! CONTRIBUTING.md for the checklist).
//!
//! Three-valued logic uses a two-plane encoding per net word:
//!
//! | plane | lane bit means |
//! |-------|----------------|
//! | `ones` | value is known `1` |
//! | `unk`  | value is `X` |
//!
//! with the invariant `ones & unk == 0` in every chunk; a lane with
//! neither bit set is a known `0`. Controlling values still force known
//! outputs through `X` exactly as [`optpower_netlist::Logic`] does
//! (e.g. `And2(0, X) = 0`), because the known-zero and known-one planes
//! are computed independently and `X` is whatever neither plane claims.
//!
//! # Hot-path structure
//!
//! The step loop runs over a prebuilt *program*: one flat [`Op`] per
//! combinational cell (kind, net indices, logic flag) in topological
//! order, so the hot path never touches the netlist's cell table. Each
//! op evaluates chunk-by-chunk in a fixed-length loop that keeps only a
//! handful of `u64`s live — no whole-plane temporaries to spill at
//! `W = 8` — and fuses evaluation, toggle detection and the in-place
//! store into one pass. The total transition count is accumulated
//! eagerly from toggle-mask popcounts; *per-lane* counts are opt-in
//! ([`WidePlaneSim::track_lane_transitions`]) and use bit-plane ripple
//! counters ([`LaneCounters`]) so recording a 64-lane toggle mask costs
//! a few bitwise ops instead of one pass per set bit.

use optpower_netlist::{CellId, CellKind, Logic, Netlist};

use crate::bus::{bus_inputs, bus_outputs, decode_bus, transpose64};

/// Number of independent stimulus lanes per plane chunk (the bit width
/// of one `u64` plane word, and the lane count of the default
/// [`BitParallelSim`] engine).
pub const LANES: usize = 64;

/// One 64-lane three-valued chunk (two-plane encoding, see module
/// docs). [`WideWord`] is `W` of these evaluated in lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Chunk {
    /// Lanes whose value is a known `1`.
    ones: u64,
    /// Lanes whose value is `X` (disjoint from `ones`).
    unk: u64,
}

impl Chunk {
    /// Lanes whose value is a known `0`.
    #[inline]
    fn zeros(self) -> u64 {
        !self.ones & !self.unk
    }

    /// Builds a chunk from per-lane known/one planes, normalising the
    /// `ones & unk == 0` invariant.
    #[inline]
    fn from_planes(ones: u64, zeros: u64) -> Chunk {
        debug_assert_eq!(ones & zeros, 0, "a lane cannot be both 0 and 1");
        Chunk {
            ones,
            unk: !(ones | zeros),
        }
    }
}

#[inline]
fn inv(a: Chunk) -> Chunk {
    Chunk::from_planes(a.zeros(), a.ones)
}

#[inline]
fn and2(a: Chunk, b: Chunk) -> Chunk {
    Chunk::from_planes(a.ones & b.ones, a.zeros() | b.zeros())
}

#[inline]
fn or2(a: Chunk, b: Chunk) -> Chunk {
    Chunk::from_planes(a.ones | b.ones, a.zeros() & b.zeros())
}

#[inline]
fn xor2(a: Chunk, b: Chunk) -> Chunk {
    let unk = a.unk | b.unk;
    Chunk {
        ones: (a.ones ^ b.ones) & !unk,
        unk,
    }
}

#[inline]
fn xor3(a: Chunk, b: Chunk, c: Chunk) -> Chunk {
    let unk = a.unk | b.unk | c.unk;
    Chunk {
        ones: (a.ones ^ b.ones ^ c.ones) & !unk,
        unk,
    }
}

#[inline]
fn maj3(a: Chunk, b: Chunk, c: Chunk) -> Chunk {
    // Known as soon as two inputs agree on a value.
    let ones = (a.ones & b.ones) | (a.ones & c.ones) | (b.ones & c.ones);
    let zeros = (a.zeros() & b.zeros()) | (a.zeros() & c.zeros()) | (b.zeros() & c.zeros());
    Chunk::from_planes(ones, zeros)
}

#[inline]
fn mux2(a: Chunk, b: Chunk, sel: Chunk) -> Chunk {
    // sel=0 -> a, sel=1 -> b; X select known only where the data
    // inputs agree on a known value.
    let ones = (sel.zeros() & a.ones) | (sel.ones & b.ones) | (sel.unk & a.ones & b.ones);
    let zeros =
        (sel.zeros() & a.zeros()) | (sel.ones & b.zeros()) | (sel.unk & a.zeros() & b.zeros());
    Chunk::from_planes(ones, zeros)
}

/// One `64 * W`-lane three-valued word: `W` two-plane [`u64`] chunks
/// evaluated in lock-step. The chunk loops are fixed-length over
/// `[u64; W]`, so each width monomorphizes into straight-line
/// unrolled (and, where the target allows, vectorized) plane code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideWord<const W: usize> {
    /// Per-chunk lanes whose value is a known `1`.
    ones: [u64; W],
    /// Per-chunk lanes whose value is `X` (disjoint from `ones`).
    unk: [u64; W],
}

impl<const W: usize> WideWord<W> {
    /// All lanes `X`.
    const X: Self = Self {
        ones: [0; W],
        unk: [u64::MAX; W],
    };

    /// All lanes the same known value.
    #[inline]
    fn splat(value: bool) -> Self {
        Self {
            ones: [if value { u64::MAX } else { 0 }; W],
            unk: [0; W],
        }
    }

    /// The 64-lane chunk holding lanes `64i .. 64i+64`.
    #[inline]
    fn chunk(&self, i: usize) -> Chunk {
        Chunk {
            ones: self.ones[i],
            unk: self.unk[i],
        }
    }

    #[cfg(test)]
    #[inline]
    fn set_chunk(&mut self, i: usize, c: Chunk) {
        self.ones[i] = c.ones;
        self.unk[i] = c.unk;
    }

    /// Applies a chunk-wise unary op across the whole plane.
    #[cfg(test)]
    #[inline]
    fn map(self, f: impl Fn(Chunk) -> Chunk) -> Self {
        let mut out = Self::X;
        for i in 0..W {
            out.set_chunk(i, f(self.chunk(i)));
        }
        out
    }

    /// Applies a chunk-wise binary op across the whole plane.
    #[cfg(test)]
    #[inline]
    fn zip2(a: Self, b: Self, f: impl Fn(Chunk, Chunk) -> Chunk) -> Self {
        let mut out = Self::X;
        for i in 0..W {
            out.set_chunk(i, f(a.chunk(i), b.chunk(i)));
        }
        out
    }

    /// Applies a chunk-wise ternary op across the whole plane.
    #[cfg(test)]
    #[inline]
    fn zip3(a: Self, b: Self, c: Self, f: impl Fn(Chunk, Chunk, Chunk) -> Chunk) -> Self {
        let mut out = Self::X;
        for i in 0..W {
            out.set_chunk(i, f(a.chunk(i), b.chunk(i), c.chunk(i)));
        }
        out
    }

    /// The three-valued value of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W` — a masked shift would silently
    /// alias `lane % 64` otherwise.
    #[inline]
    fn lane(&self, lane: usize) -> Logic {
        assert!(
            lane < LANES * W,
            "lane {lane} out of range (0..{})",
            LANES * W
        );
        let (c, bit) = (lane / LANES, lane % LANES);
        if (self.unk[c] >> bit) & 1 == 1 {
            Logic::X
        } else if (self.ones[c] >> bit) & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

/// Reference lane-parallel [`CellKind::eval`]: each output lane equals
/// the scalar three-valued evaluation of that lane's inputs. The
/// production step loop uses the fused per-op stores built on the same
/// chunk functions; this whole-word form exists so the exhaustive unit
/// test below can sweep every kind and input combination directly.
#[cfg(test)]
#[inline]
fn eval_wide<const W: usize>(kind: CellKind, ins: &[WideWord<W>]) -> WideWord<W> {
    match kind {
        CellKind::Input => WideWord::X,
        CellKind::Const0 => WideWord::splat(false),
        CellKind::Const1 => WideWord::splat(true),
        CellKind::Output | CellKind::Buf | CellKind::Dff => ins[0],
        CellKind::Inv => ins[0].map(inv),
        CellKind::And2 => WideWord::zip2(ins[0], ins[1], and2),
        CellKind::Nand2 => WideWord::zip2(ins[0], ins[1], |a, b| inv(and2(a, b))),
        CellKind::Or2 => WideWord::zip2(ins[0], ins[1], or2),
        CellKind::Nor2 => WideWord::zip2(ins[0], ins[1], |a, b| inv(or2(a, b))),
        CellKind::Xor2 => WideWord::zip2(ins[0], ins[1], xor2),
        CellKind::Xnor2 => WideWord::zip2(ins[0], ins[1], |a, b| inv(xor2(a, b))),
        CellKind::Xor3 => WideWord::zip3(ins[0], ins[1], ins[2], xor3),
        CellKind::Maj3 => WideWord::zip3(ins[0], ins[1], ins[2], maj3),
        CellKind::Mux2 => WideWord::zip3(ins[0], ins[1], ins[2], mux2),
    }
}

/// One combinational cell of the prebuilt step program: everything the
/// hot loop needs, flat and 4-byte indexed, so evaluating a cell never
/// touches the netlist's cell table.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: CellKind,
    /// Counted in the transition totals (the paper's `N`).
    logic: bool,
    /// Output net index into the packed value vector.
    out: u32,
    /// Input net indices; slots beyond the cell's arity are unused.
    ins: [u32; 3],
}

/// Number of bit-plane counter levels: pending per-lane counts up to
/// `2^COUNT_PLANES - 1` before a flush into the `u64` totals.
const COUNT_PLANES: usize = 16;

/// Per-lane transition counters in bit-plane form: `planes[k][c]` bit
/// `b` is bit `k` of the pending count of lane `64c + b`. Adding one
/// 64-lane toggle mask is a ripple-carry increment over the planes —
/// a few bitwise ops, terminating as soon as the carry dies out —
/// instead of one loop iteration per set mask bit. Pending counts are
/// flushed into plain `u64` totals every `2^COUNT_PLANES - 1` adds and
/// on demand.
#[derive(Debug, Clone)]
struct LaneCounters<const W: usize> {
    planes: [[u64; W]; COUNT_PLANES],
    /// Adds since the last flush; bounds every pending lane count.
    pending: u32,
    /// Flushed per-lane totals, `64 * W` entries.
    totals: Vec<u64>,
}

impl<const W: usize> LaneCounters<W> {
    fn new() -> Self {
        Self {
            planes: [[0; W]; COUNT_PLANES],
            pending: 0,
            totals: vec![0; LANES * W],
        }
    }

    /// Adds one toggle mask per chunk to the pending per-lane counts.
    #[inline]
    fn add(&mut self, masks: &[u64; W]) {
        if self.pending == (1 << COUNT_PLANES) - 1 {
            self.flush();
        }
        self.pending += 1;
        let mut carry = *masks;
        for plane in &mut self.planes {
            let mut alive = 0u64;
            for c in 0..W {
                let t = plane[c] & carry[c];
                plane[c] ^= carry[c];
                carry[c] = t;
                alive |= t;
            }
            if alive == 0 {
                return;
            }
        }
        debug_assert!(
            carry.iter().all(|&c| c == 0),
            "pending counts are flushed before they can overflow"
        );
    }

    /// Folds the pending bit-plane counts into the `u64` totals.
    fn flush(&mut self) {
        for c in 0..W {
            for b in 0..LANES {
                let mut v = 0u64;
                for (k, plane) in self.planes.iter().enumerate() {
                    v |= ((plane[c] >> b) & 1) << k;
                }
                self.totals[c * LANES + b] += v;
            }
        }
        self.planes = [[0; W]; COUNT_PLANES];
        self.pending = 0;
    }

    fn reset(&mut self) {
        self.planes = [[0; W]; COUNT_PLANES];
        self.pending = 0;
        self.totals.fill(0);
    }
}

/// `64 * W`-lane per-cycle functional simulator: the step semantics of
/// [`crate::ZeroDelaySim`] (DFFs clock simultaneously, then one
/// topological pass; glitch-free), applied to a whole plane of
/// independent stimulus lanes at once. `W = 1` is the classic 64-lane
/// [`BitParallelSim`]; `W = 4`/`W = 8` widen the plane to 256/512
/// lanes per pass, amortising the per-cell bookkeeping (topological
/// walk, operand gathering, change detection) over 4–8× more streams.
///
/// Transition counting matches the scalar engine per lane: a lane
/// counts one transition when a logic cell's output toggles between two
/// *known* values; `X`↔known changes are free, exactly as in
/// [`crate::ZeroDelaySim`]. The summed total
/// ([`WidePlaneSim::logic_transitions`]) is always maintained;
/// *per-lane* counts cost extra bookkeeping on every write and are
/// opt-in via [`WidePlaneSim::track_lane_transitions`].
///
/// # Examples
///
/// ```
/// use optpower_netlist::{CellKind, NetlistBuilder};
/// use optpower_sim::BitParallelSim;
///
/// let mut b = NetlistBuilder::new("inv");
/// let x = b.add_input("x0");
/// let y = b.add_cell(CellKind::Inv, &[x]);
/// b.add_output("y0", y);
/// let nl = b.build()?;
///
/// let mut sim = BitParallelSim::new(&nl);
/// // One operand value per lane: lane 0 drives 0, lane 1 drives 1,
/// // the rest drive 0.
/// let mut lanes = vec![0u64; sim.lanes()];
/// lanes[1] = 1;
/// sim.set_input_bits_lanes("x", &lanes);
/// sim.step();
/// assert_eq!(sim.output_bits_lane("y", 0), Some(1));
/// assert_eq!(sim.output_bits_lane("y", 1), Some(0));
/// # Ok::<(), optpower_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WidePlaneSim<'n, const W: usize = 1> {
    netlist: &'n Netlist,
    /// Current packed value of every net.
    values: Vec<WideWord<W>>,
    /// Pending primary-input words applied at the next step.
    input_next: Vec<WideWord<W>>,
    /// `true` for cells counted in the transition totals (logic cells);
    /// used by the DFF/input store paths (combinational cells carry
    /// the flag in their [`Op`]).
    is_logic: Vec<bool>,
    /// The combinational step program, in topological order.
    ops: Vec<Op>,
    /// The sequential cells, precomputed so [`WidePlaneSim::step`]
    /// does not rescan the whole cell list every cycle.
    dffs: Vec<CellId>,
    /// Reusable buffer for the pre-edge D words (two-phase capture).
    dff_scratch: Vec<WideWord<W>>,
    /// Total known↔known transitions across all lanes (logic cells).
    transitions_total: u64,
    /// Per-lane counters, present only after
    /// [`WidePlaneSim::track_lane_transitions`].
    lane_track: Option<LaneCounters<W>>,
    cycle: u64,
}

/// The classic 64-lane engine: [`WidePlaneSim`] at one chunk.
pub type BitParallelSim<'n> = WidePlaneSim<'n, 1>;

/// The 256-lane engine: [`WidePlaneSim`] at four chunks.
pub type BitParallelSim256<'n> = WidePlaneSim<'n, 4>;

/// The 512-lane engine: [`WidePlaneSim`] at eight chunks.
pub type BitParallelSim512<'n> = WidePlaneSim<'n, 8>;

impl<'n, const W: usize> WidePlaneSim<'n, W> {
    /// Lanes simulated per step: `64 * W`.
    pub const LANE_COUNT: usize = LANES * W;

    /// Creates a simulator with every net at `X` in every lane.
    pub fn new(netlist: &'n Netlist) -> Self {
        let is_logic = netlist.logic_mask();
        let dffs: Vec<CellId> = netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(i, _)| CellId(i as u32))
            .collect();
        let dff_scratch = Vec::with_capacity(dffs.len());
        // Compile the combinational core into the flat step program.
        // Inputs and DFFs update through their own phases of `step`.
        let ops: Vec<Op> = netlist
            .topo_order()
            .iter()
            .map(|&id| (id, netlist.cell(id)))
            .filter(|(_, c)| !matches!(c.kind, CellKind::Input | CellKind::Dff))
            .map(|(id, cell)| {
                let mut ins = [0u32; 3];
                for (slot, net) in ins.iter_mut().zip(cell.inputs.iter()) {
                    *slot = net.index() as u32;
                }
                Op {
                    kind: cell.kind,
                    logic: is_logic[id.index()],
                    out: cell.output.index() as u32,
                    ins,
                }
            })
            .collect();
        Self {
            netlist,
            values: vec![WideWord::X; netlist.cells().len()],
            input_next: vec![WideWord::X; netlist.cells().len()],
            is_logic,
            ops,
            dffs,
            dff_scratch,
            transitions_total: 0,
            lane_track: None,
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of [`WidePlaneSim::step`]s executed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of independent stimulus lanes (`64 * W`).
    pub fn lanes(&self) -> usize {
        Self::LANE_COUNT
    }

    /// Enables per-lane transition counting
    /// ([`WidePlaneSim::lane_logic_transitions`]). Off by default: the
    /// summed total is free, but per-lane counts put extra bookkeeping
    /// on every logic-cell write, which throughput-only consumers (the
    /// activity measurements) never read.
    ///
    /// # Panics
    ///
    /// Panics if any step has already executed — counts recorded from
    /// mid-run would silently miss the earlier cycles.
    pub fn track_lane_transitions(&mut self) {
        assert_eq!(
            self.cycle, 0,
            "per-lane tracking must be enabled before the first step"
        );
        self.lane_track.get_or_insert_with(LaneCounters::new);
    }

    /// Sets one primary input to per-lane levels given as a plane of
    /// `W` chunk words: bit `b` of `ones[c]` drives lane `64c + b` to
    /// `1`, otherwise to `0` (takes effect at the next step).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell or
    /// `ones.len() != W`.
    pub fn set_input_plane(&mut self, input: CellId, ones: &[u64]) {
        assert!(
            self.netlist.cell(input).kind == CellKind::Input,
            "{input:?} is not a primary input"
        );
        assert_eq!(ones.len(), W, "plane must carry {W} chunk words");
        let mut w = WideWord::splat(false);
        w.ones.copy_from_slice(ones);
        self.input_next[input.index()] = w;
    }

    /// Sets one primary input to the same known level in every lane
    /// (shared control signals such as `rst`).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell.
    pub fn set_input_all_lanes(&mut self, input: CellId, value: bool) {
        assert!(
            self.netlist.cell(input).kind == CellKind::Input,
            "{input:?} is not a primary input"
        );
        self.input_next[input.index()] = WideWord::splat(value);
    }

    /// Sets an entire input bus `{prefix}{0..}` from per-lane
    /// integers: lane `L` of the bus is driven with `values[L]`.
    ///
    /// # Panics
    ///
    /// Panics if no `{prefix}0` input exists or `values.len()` is not
    /// the lane count (`64 * W`).
    pub fn set_input_bits_lanes(&mut self, prefix: &str, values: &[u64]) {
        let bus = bus_inputs(self.netlist, prefix);
        assert!(!bus.is_empty(), "no input bus named {prefix}*");
        assert_eq!(
            values.len(),
            LANES * W,
            "one value per lane (0..{})",
            LANES * W
        );
        // Pivot lane values into per-bit plane words one 64-lane chunk
        // at a time ([`transpose64`]); the bus reads its rows from the
        // transposed blocks.
        let mut planes = [[0u64; W]; LANES];
        let mut block = [0u64; LANES];
        for c in 0..W {
            block.copy_from_slice(&values[c * LANES..(c + 1) * LANES]);
            transpose64(&mut block);
            for (bit, plane) in planes.iter_mut().enumerate() {
                plane[c] = block[bit];
            }
        }
        for (bit, id) in bus.into_iter().enumerate() {
            self.set_input_plane(id, &planes[bit]);
        }
    }

    /// Sets an entire input bus to the *same* integer in every lane
    /// (shared control signals such as `rst`).
    pub fn set_input_bits_all_lanes(&mut self, prefix: &str, value: u64) {
        let bus = bus_inputs(self.netlist, prefix);
        assert!(!bus.is_empty(), "no input bus named {prefix}*");
        for (bit, id) in bus.into_iter().enumerate() {
            self.set_input_all_lanes(id, (value >> bit) & 1 == 1);
        }
    }

    /// Current value of a net in one lane.
    pub fn value(&self, net: optpower_netlist::NetId, lane: usize) -> Logic {
        self.values[net.index()].lane(lane)
    }

    /// Every net's current value in one lane, indexed by net: the
    /// lane's whole state between steps, from which
    /// [`crate::TimedLanes`] resumes the lane on the event wheel.
    pub fn lane_values(&self, lane: usize) -> Vec<Logic> {
        self.values.iter().map(|w| w.lane(lane)).collect()
    }

    /// Decodes an output bus `{prefix}{0..}` in one lane; `None` if any
    /// bit of that lane is `X`.
    pub fn output_bits_lane(&self, prefix: &str, lane: usize) -> Option<u64> {
        let bus = bus_outputs(self.netlist, prefix);
        if bus.is_empty() {
            return None;
        }
        let bits: Vec<Logic> = bus
            .iter()
            .map(|&id| self.values[self.netlist.cell(id).inputs[0].index()].lane(lane))
            .collect();
        decode_bus(&bits)
    }

    /// Advances one clock cycle in every lane: clocks every DFF
    /// (capturing the D word settled in the previous cycle), applies
    /// pending inputs, then evaluates the combinational core once in
    /// topological order — the exact step semantics of
    /// [`crate::ZeroDelaySim`], a whole plane of lanes at a time.
    pub fn step(&mut self) {
        // 1. Sample every D pin first (pre-edge words; DFF-to-DFF
        // chains must not see this cycle's Q), then update all Q
        // outputs. The scratch buffer is reused across steps.
        let dffs = core::mem::take(&mut self.dffs);
        let mut scratch = core::mem::take(&mut self.dff_scratch);
        scratch.clear();
        scratch.extend(
            dffs.iter()
                .map(|&id| self.values[self.netlist.cell(id).inputs[0].index()]),
        );
        for (&id, &q) in dffs.iter().zip(scratch.iter()) {
            let net = self.netlist.cell(id).output.index();
            let logic = self.is_logic[id.index()];
            self.store(net, logic, q.ones, q.unk);
        }
        self.dffs = dffs;
        self.dff_scratch = scratch;
        // 2. Apply primary inputs.
        for &id in self.netlist.primary_inputs() {
            let w = self.input_next[id.index()];
            let net = self.netlist.cell(id).output.index();
            let logic = self.is_logic[id.index()];
            self.store(net, logic, w.ones, w.unk);
        }
        // 3. One pass over the prebuilt combinational program.
        let ops = core::mem::take(&mut self.ops);
        for op in &ops {
            self.exec(op);
        }
        self.ops = ops;
        self.cycle += 1;
    }

    /// Evaluates one op of the step program with the fused
    /// per-chunk store.
    #[inline(always)]
    fn exec(&mut self, op: &Op) {
        match op.kind {
            // Excluded from the program at build time.
            CellKind::Input | CellKind::Dff => {}
            CellKind::Const0 => {
                let w = WideWord::splat(false);
                self.store(op.out as usize, op.logic, w.ones, w.unk);
            }
            CellKind::Const1 => {
                let w = WideWord::splat(true);
                self.store(op.out as usize, op.logic, w.ones, w.unk);
            }
            CellKind::Output | CellKind::Buf => self.store1(op, |a| a),
            CellKind::Inv => self.store1(op, inv),
            CellKind::And2 => self.store2(op, and2),
            CellKind::Nand2 => self.store2(op, |a, b| inv(and2(a, b))),
            CellKind::Or2 => self.store2(op, or2),
            CellKind::Nor2 => self.store2(op, |a, b| inv(or2(a, b))),
            CellKind::Xor2 => self.store2(op, xor2),
            CellKind::Xnor2 => self.store2(op, |a, b| inv(xor2(a, b))),
            CellKind::Xor3 => self.store3(op, xor3),
            CellKind::Maj3 => self.store3(op, maj3),
            CellKind::Mux2 => self.store3(op, mux2),
        }
    }

    /// Applies a unary chunk op and stores the result.
    #[inline(always)]
    fn store1(&mut self, op: &Op, f: impl Fn(Chunk) -> Chunk) {
        let a = self.values[op.ins[0] as usize];
        let (mut ones, mut unk) = ([0u64; W], [0u64; W]);
        for c in 0..W {
            let r = f(a.chunk(c));
            ones[c] = r.ones;
            unk[c] = r.unk;
        }
        self.store(op.out as usize, op.logic, ones, unk);
    }

    /// Applies a binary chunk op and stores the result.
    #[inline(always)]
    fn store2(&mut self, op: &Op, f: impl Fn(Chunk, Chunk) -> Chunk) {
        let a = self.values[op.ins[0] as usize];
        let b = self.values[op.ins[1] as usize];
        let (mut ones, mut unk) = ([0u64; W], [0u64; W]);
        for c in 0..W {
            let r = f(a.chunk(c), b.chunk(c));
            ones[c] = r.ones;
            unk[c] = r.unk;
        }
        self.store(op.out as usize, op.logic, ones, unk);
    }

    /// Applies a ternary chunk op and stores the result.
    #[inline(always)]
    fn store3(&mut self, op: &Op, f: impl Fn(Chunk, Chunk, Chunk) -> Chunk) {
        let a = self.values[op.ins[0] as usize];
        let b = self.values[op.ins[1] as usize];
        let c3 = self.values[op.ins[2] as usize];
        let (mut ones, mut unk) = ([0u64; W], [0u64; W]);
        for c in 0..W {
            let r = f(a.chunk(c), b.chunk(c), c3.chunk(c));
            ones[c] = r.ones;
            unk[c] = r.unk;
        }
        self.store(op.out as usize, op.logic, ones, unk);
    }

    /// Stores a computed plane word into its output net, counting
    /// known↔known toggles for logic cells. One fused pass: toggle
    /// masks fall out of the old/new diff, the total advances by their
    /// popcounts, and per-lane counters (when tracking) absorb the
    /// masks via the bit-plane ripple.
    #[inline(always)]
    fn store(&mut self, net: usize, logic: bool, ones: [u64; W], unk: [u64; W]) {
        let old = self.values[net];
        if logic {
            let mut toggled = [0u64; W];
            let mut any = 0u64;
            for c in 0..W {
                // A lane transitions when both the old and new values
                // are known and the level actually toggles. `ones` is
                // 0 on X lanes (invariant), so the XOR is exact.
                let t = (old.ones[c] ^ ones[c]) & !(old.unk[c] | unk[c]);
                toggled[c] = t;
                any |= t;
            }
            if any != 0 {
                let mut delta = 0u64;
                for &t in &toggled {
                    delta += u64::from(t.count_ones());
                }
                self.transitions_total += delta;
                if let Some(track) = &mut self.lane_track {
                    track.add(&toggled);
                }
            }
        }
        self.values[net] = WideWord { ones, unk };
    }

    /// Total known↔known transitions of logic-cell outputs, summed over
    /// all lanes.
    pub fn logic_transitions(&self) -> u64 {
        self.transitions_total
    }

    /// Per-lane known↔known transitions of logic-cell outputs, one
    /// entry per lane (`64 * W` entries): entry `L` equals
    /// [`crate::ZeroDelaySim::logic_transitions`] of a scalar run
    /// driven with lane `L`'s stimulus. Takes `&mut self` to fold the
    /// pending bit-plane counters into the totals first.
    ///
    /// # Panics
    ///
    /// Panics unless [`WidePlaneSim::track_lane_transitions`] was
    /// called before the first step.
    pub fn lane_logic_transitions(&mut self) -> &[u64] {
        let track = self
            .lane_track
            .as_mut()
            .expect("per-lane counts need track_lane_transitions() before stepping");
        track.flush();
        &track.totals
    }

    /// Resets the transition counters (e.g. after warm-up cycles).
    pub fn reset_transitions(&mut self) {
        self.transitions_total = 0;
        if let Some(track) = &mut self.lane_track {
            track.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZeroDelaySim;
    use optpower_netlist::NetlistBuilder;
    use Logic::{One, Zero, X};

    /// Every 1/2/3-input kind, every three-valued input combination:
    /// each lane of `eval_wide` equals the scalar `CellKind::eval`, at
    /// one, four and eight chunks.
    #[test]
    fn eval_wide_matches_scalar_eval_exhaustively() {
        fn check<const W: usize>(lanes: &[usize]) {
            let levels = [Zero, One, X];
            let word_of = |v: Logic, lane: usize| -> WideWord<W> {
                let mut w = WideWord::splat(false);
                match v {
                    Zero => {}
                    One => w.ones[lane / LANES] |= 1 << (lane % LANES),
                    X => w.unk[lane / LANES] |= 1 << (lane % LANES),
                }
                w
            };
            for kind in CellKind::ALL {
                let arity = kind.arity();
                let combos = 3usize.pow(arity as u32);
                for combo in 0..combos {
                    let mut scalar_ins = Vec::with_capacity(arity);
                    let mut c = combo;
                    for _ in 0..arity {
                        scalar_ins.push(levels[c % 3]);
                        c /= 3;
                    }
                    // Spread the same combo over a few lanes, including
                    // the top lane, to catch shift/sign mistakes.
                    for &lane in lanes {
                        let words: Vec<WideWord<W>> =
                            scalar_ins.iter().map(|&v| word_of(v, lane)).collect();
                        let got = eval_wide(kind, &words).lane(lane);
                        let want = kind.eval(&scalar_ins);
                        // Input cells: scalar eval returns X; eval_wide
                        // is never called on them in `step`, but keep
                        // parity.
                        assert_eq!(got, want, "{kind} {scalar_ins:?} lane {lane} W={W}");
                        // Off-combo lanes saw all-known-0 inputs: they
                        // must hold the all-zero evaluation, not leak
                        // lane data.
                        if lane != 0 {
                            let zero_ins = vec![Zero; arity];
                            assert_eq!(
                                eval_wide(kind, &words).lane(0),
                                kind.eval(&zero_ins),
                                "{kind} cross-lane leak W={W}"
                            );
                        }
                    }
                }
            }
        }
        check::<1>(&[0, 1, 31, 63]);
        check::<4>(&[0, 64, 130, 255]);
        check::<8>(&[0, 63, 64, 320, 511]);
    }

    #[test]
    fn word_invariant_holds_after_eval() {
        let mut a = WideWord::<4>::splat(false);
        a.ones = [0b0110, 0, 0b0110, u64::MAX >> 1];
        a.unk = [0b1000, u64::MAX, 0b1000, 0];
        let mut b = WideWord::<4>::splat(false);
        b.ones = [0b0101, 0b0101, 0, 1 << 63];
        b.unk = [0b0010, 0b0010, u64::MAX, 0];
        for kind in [
            CellKind::And2,
            CellKind::Nand2,
            CellKind::Or2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
        ] {
            let w = eval_wide(kind, &[a, b]);
            for c in 0..4 {
                assert_eq!(w.ones[c] & w.unk[c], 0, "{kind} chunk {c}");
            }
        }
    }

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.add_input("a0");
        let x = b.add_input("b0");
        let c = b.add_input("c0");
        let s = b.add_cell(CellKind::Xor3, &[a, x, c]);
        let co = b.add_cell(CellKind::Maj3, &[a, x, c]);
        b.add_output("p0", s);
        b.add_output("p1", co);
        b.build().unwrap()
    }

    #[test]
    fn all_eight_adder_rows_in_one_step() {
        // The classic bit-parallel win: the whole truth table at once —
        // and at 512 lanes, in the top chunk too.
        fn check<const W: usize>(base: usize) {
            let nl = full_adder();
            let mut sim = WidePlaneSim::<W>::new(&nl);
            let mut a = vec![0u64; sim.lanes()];
            let mut b = vec![0u64; sim.lanes()];
            let mut c = vec![0u64; sim.lanes()];
            for row in 0..8 {
                let lane = base + row;
                a[lane] = (row as u64) & 1;
                b[lane] = (row as u64 >> 1) & 1;
                c[lane] = (row as u64 >> 2) & 1;
            }
            sim.set_input_bits_lanes("a", &a);
            sim.set_input_bits_lanes("b", &b);
            sim.set_input_bits_lanes("c", &c);
            sim.step();
            for row in 0..8 {
                let lane = base + row;
                let sum = a[lane] + b[lane] + c[lane];
                assert_eq!(
                    sim.output_bits_lane("p", lane),
                    Some(sum),
                    "lane {lane} W={W}"
                );
            }
        }
        check::<1>(0);
        check::<4>(190);
        check::<8>(504);
    }

    #[test]
    fn outputs_are_x_before_inputs_arrive() {
        let nl = full_adder();
        let mut sim = BitParallelSim::new(&nl);
        sim.step();
        assert_eq!(sim.output_bits_lane("p", 0), None);
        assert_eq!(sim.output_bits_lane("p", 63), None);
        let mut wide = BitParallelSim512::new(&nl);
        wide.step();
        assert_eq!(wide.output_bits_lane("p", 0), None);
        assert_eq!(wide.output_bits_lane("p", 511), None);
    }

    #[test]
    fn dff_delays_by_one_cycle_in_every_lane() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.add_input("a0");
        let q = b.add_cell(CellKind::Dff, &[d]);
        b.add_output("p0", q);
        let nl = b.build().unwrap();
        let mut sim = BitParallelSim256::new(&nl);
        let mut lanes = vec![0u64; sim.lanes()];
        lanes[5] = 1;
        lanes[63] = 1;
        lanes[255] = 1;
        sim.set_input_bits_lanes("a", &lanes);
        sim.step(); // q captured pre-edge X
        assert_eq!(sim.output_bits_lane("p", 5), None);
        sim.step(); // q captures the lane values
        assert_eq!(sim.output_bits_lane("p", 5), Some(1));
        assert_eq!(sim.output_bits_lane("p", 0), Some(0));
        assert_eq!(sim.output_bits_lane("p", 63), Some(1));
        assert_eq!(sim.output_bits_lane("p", 255), Some(1));
        assert_eq!(sim.output_bits_lane("p", 254), Some(0));
    }

    #[test]
    fn lane_transitions_match_scalar_runs() {
        // Drive 4 lanes (spread across chunks) with different streams;
        // each lane's count must equal a dedicated scalar run, and the
        // total must be the sum.
        let nl = full_adder();
        let streams: [[u64; 5]; 4] = [
            [0b000, 0b111, 0b000, 0b111, 0b000],
            [0b001, 0b001, 0b001, 0b001, 0b001],
            [0b010, 0b101, 0b011, 0b100, 0b110],
            [0b111, 0b000, 0b101, 0b010, 0b111],
        ];
        let driven = [0usize, 63, 64, 255];
        let mut bp = BitParallelSim256::new(&nl);
        bp.track_lane_transitions();
        for t in 0..streams[0].len() {
            let mut a = vec![0u64; bp.lanes()];
            let mut b = vec![0u64; bp.lanes()];
            let mut c = vec![0u64; bp.lanes()];
            for (&lane, s) in driven.iter().zip(streams.iter()) {
                a[lane] = s[t] & 1;
                b[lane] = (s[t] >> 1) & 1;
                c[lane] = (s[t] >> 2) & 1;
            }
            bp.set_input_bits_lanes("a", &a);
            bp.set_input_bits_lanes("b", &b);
            bp.set_input_bits_lanes("c", &c);
            bp.step();
        }
        let mut sum = 0;
        for (&lane, s) in driven.iter().zip(streams.iter()) {
            let mut zd = ZeroDelaySim::new(&nl);
            for &v in s {
                zd.set_input_bits("a", v & 1);
                zd.set_input_bits("b", (v >> 1) & 1);
                zd.set_input_bits("c", (v >> 2) & 1);
                zd.step();
            }
            assert_eq!(
                bp.lane_logic_transitions()[lane],
                zd.logic_transitions(),
                "lane {lane}"
            );
            sum += zd.logic_transitions();
        }
        // Undriven lanes (constant all-zero inputs) still settle once
        // from X, which is free in both engines.
        let mut zd = ZeroDelaySim::new(&nl);
        for _ in 0..streams[0].len() {
            zd.set_input_bits("a", 0);
            zd.set_input_bits("b", 0);
            zd.set_input_bits("c", 0);
            zd.step();
        }
        sum += (bp.lanes() as u64 - 4) * zd.logic_transitions();
        assert_eq!(bp.logic_transitions(), sum);
    }

    #[test]
    fn reset_transitions_clears_all_lanes() {
        let nl = full_adder();
        let mut sim = BitParallelSim512::new(&nl);
        sim.track_lane_transitions();
        let mut a = vec![0u64; sim.lanes()];
        sim.set_input_bits_lanes("a", &a);
        sim.set_input_bits_lanes("b", &a);
        sim.set_input_bits_lanes("c", &a);
        sim.step();
        a.iter_mut().for_each(|v| *v = 1);
        sim.set_input_bits_lanes("a", &a);
        sim.step();
        assert!(sim.logic_transitions() > 0);
        assert!(sim.lane_logic_transitions().iter().any(|&t| t > 0));
        sim.reset_transitions();
        assert_eq!(sim.logic_transitions(), 0);
        assert_eq!(sim.lane_logic_transitions().len(), 512);
        assert!(sim.lane_logic_transitions().iter().all(|&t| t == 0));
    }

    #[test]
    #[should_panic(expected = "track_lane_transitions")]
    fn lane_counts_without_tracking_panic() {
        let nl = full_adder();
        let mut sim = BitParallelSim::new(&nl);
        sim.step();
        let _ = sim.lane_logic_transitions();
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn tracking_after_stepping_panics() {
        let nl = full_adder();
        let mut sim = BitParallelSim::new(&nl);
        sim.step();
        sim.track_lane_transitions();
    }

    /// The bit-plane counters survive internal flushes: force many more
    /// adds than one flush window and compare against a plain sum.
    #[test]
    fn lane_counters_flush_exactly() {
        let mut counters = LaneCounters::<2>::new();
        let mut expect = vec![0u64; 128];
        // Deterministic mask pattern with varying density; > 2 flush
        // windows worth of adds.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..(3 << COUNT_PLANES) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64);
            let masks = [state, state.rotate_left(17) & state.rotate_right(9)];
            for (c, &m) in masks.iter().enumerate() {
                for b in 0..64 {
                    expect[c * 64 + b] += (m >> b) & 1;
                }
            }
            counters.add(&masks);
        }
        counters.flush();
        assert_eq!(counters.totals, expect);
    }

    #[test]
    fn shared_control_bus_drives_every_lane() {
        let mut b = NetlistBuilder::new("mux");
        let rst = b.add_input("rst0");
        let one = b.add_cell(CellKind::Const1, &[]);
        let zero = b.add_cell(CellKind::Const0, &[]);
        let m = b.add_cell(CellKind::Mux2, &[one, zero, rst]);
        b.add_output("p0", m);
        let nl = b.build().unwrap();
        let mut sim = WidePlaneSim::<8>::new(&nl);
        sim.set_input_bits_all_lanes("rst", 1);
        sim.step();
        for lane in [0usize, 17, 63, 64, 300, 511] {
            assert_eq!(sim.output_bits_lane("p", lane), Some(0), "lane {lane}");
        }
        sim.set_input_bits_all_lanes("rst", 0);
        sim.step();
        for lane in [0usize, 17, 63, 64, 300, 511] {
            assert_eq!(sim.output_bits_lane("p", lane), Some(1), "lane {lane}");
        }
    }

    /// The wide planes are bit-identical to independent chunked 64-lane
    /// runs: chunk `c` of a `W`-chunk run equals a dedicated
    /// [`BitParallelSim`] run driven with lanes `64c..64c+64`.
    #[test]
    fn wide_plane_equals_chunked_64_lane_runs() {
        fn check<const W: usize>() {
            let nl = full_adder();
            let mut wide = WidePlaneSim::<W>::new(&nl);
            wide.track_lane_transitions();
            let mut narrow: Vec<BitParallelSim> = (0..W)
                .map(|_| {
                    let mut sim = BitParallelSim::new(&nl);
                    sim.track_lane_transitions();
                    sim
                })
                .collect();
            // A deterministic per-lane stream with lane-dependent
            // phase, exercising every chunk differently.
            for t in 0..6u64 {
                let values: Vec<u64> = (0..LANES * W)
                    .map(|lane| (lane as u64).wrapping_mul(7).wrapping_add(t * 3) & 0b111)
                    .collect();
                for (bus, shift) in [("a", 0u64), ("b", 1), ("c", 2)] {
                    let bits: Vec<u64> = values.iter().map(|v| (v >> shift) & 1).collect();
                    wide.set_input_bits_lanes(bus, &bits);
                    for (c, sim) in narrow.iter_mut().enumerate() {
                        sim.set_input_bits_lanes(bus, &bits[c * LANES..(c + 1) * LANES]);
                    }
                }
                wide.step();
                narrow.iter_mut().for_each(BitParallelSim::step);
            }
            let mut total = 0u64;
            for (c, sim) in narrow.iter_mut().enumerate() {
                for lane in 0..LANES {
                    assert_eq!(
                        wide.output_bits_lane("p", c * LANES + lane),
                        sim.output_bits_lane("p", lane),
                        "chunk {c} lane {lane} W={W}"
                    );
                    assert_eq!(
                        wide.lane_logic_transitions()[c * LANES + lane],
                        sim.lane_logic_transitions()[lane],
                        "chunk {c} lane {lane} W={W}"
                    );
                }
                total += sim.logic_transitions();
            }
            assert_eq!(wide.logic_transitions(), total, "W={W}");
        }
        check::<4>();
        check::<8>();
    }
}
