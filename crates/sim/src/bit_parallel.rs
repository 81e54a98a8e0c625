//! The wide-plane bit-parallel zero-delay engine (64/256/512 lanes).
//!
//! Packs `64 * W` *independent* stimulus streams into `W` chunks of
//! `u64` per net — one stimulus lane per bit — and evaluates every
//! cell's three-valued semantics with plain bitwise ops, so one
//! topological pass advances an entire plane of simulations at once.
//! All operations are lane-local (no carries, no shifts across lanes or
//! chunks), so lane `L` of a [`WidePlaneSim`] run is *bit-identical* —
//! values and transition counts — to a scalar [`crate::ZeroDelaySim`]
//! run driven with lane `L`'s stimulus, and a `W`-chunk run is
//! bit-identical to `W` independent 64-lane runs.
//! `tests/sim_differential.rs` locks both equivalences down over random
//! netlists and the full multiplier suite.
//!
//! Supported plane widths are `W ∈ {1, 4, 8}` (64, 256 and 512 lanes),
//! exposed as the [`BitParallelSim`], [`BitParallelSim256`] and
//! [`BitParallelSim512`] aliases and the matching
//! [`crate::Engine::BitParallel`]/[`crate::Engine::BitParallel256`]/
//! [`crate::Engine::BitParallel512`] measurement engines. Nothing in
//! the core is specific to those widths — the eval loops are written
//! over whole `[u64; W]` words so the compiler unrolls and vectorizes
//! them per width — but the set is closed on purpose: every width is
//! locked by the differential suite before an engine name exposes it
//! (see CONTRIBUTING.md for the checklist).
//!
//! Three-valued logic uses two planes, each one `[u64; W]` word per
//! net, kept in two arrays:
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
//! [`WidePlaneSim::new`] compiles the combinational core into a step
//! program of *runs*. Every cell gets a topological level (primary
//! inputs and flip-flop outputs are level 0, a cell is one more than
//! its deepest input, and a cell nothing reads moves to the last
//! level); one O(cells) counting sort orders the cells by level and,
//! within a level, by kind; each stretch of one kind is a run. Cells of
//! one level never read each other, so this order computes the same
//! values and per-lane sums as the netlist's topological order, and the
//! step evaluates each run with a loop specialised to its kind: nothing
//! dispatches per cell. A cell's loop body copies whole `[u64; W]`
//! words and fuses evaluation, toggle detection and the in-place store.
//!
//! The runs execute under one of two programs:
//!
//! * the *three-valued* program reads and writes both planes. It runs
//!   from construction, while unset inputs and unreset flip-flops may
//!   hold `X`, and ORs every `unk` word it stores as it goes;
//! * the *two-valued* program reads and writes only the `ones` plane,
//!   skips constant drivers (they cannot change) and counts
//!   `popcount(old ^ new)`. A step whose stores held no `X` lane has
//!   written every net `X`-free, pending inputs included, and the
//!   setters only drive known levels, so no `X` can come back: from the
//!   next step on the plane runs the two-valued program for good. The
//!   switch costs no scan, and a plane that never becomes `X`-free (a
//!   flip-flop loop without reset) keeps the three-valued program.
//!
//! Both programs evaluate the same per-kind chunk functions; the
//! two-valued one applies them to chunks with an all-zero `unk` plane,
//! which the compiler folds away. The total transition count is
//! accumulated eagerly from toggle-mask popcounts; *per-lane* counts
//! are opt-in ([`WidePlaneSim::track_lane_transitions`]) and use
//! bit-plane ripple counters ([`LaneCounters`]) so recording a 64-lane
//! toggle mask costs a few bitwise ops instead of one pass per set bit.

use optpower_netlist::{CellId, CellKind, Logic, NetId, Netlist};

use crate::bus::{bus_inputs, bus_outputs, decode_bus, transpose64};

/// Number of independent stimulus lanes per plane chunk (the bit width
/// of one `u64` plane word, and the lane count of the default
/// [`BitParallelSim`] engine).
pub const LANES: usize = 64;

/// One 64-lane three-valued chunk (two-plane encoding, see module
/// docs): the unit every gate function works on.
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

/// The three-valued value of `lane` in a net's plane words.
///
/// # Panics
///
/// Panics if `lane >= 64 * W` — a masked shift would silently alias
/// `lane % 64` otherwise.
#[inline]
fn lane_logic<const W: usize>(ones: &[u64; W], unk: &[u64; W], lane: usize) -> Logic {
    assert!(
        lane < LANES * W,
        "lane {lane} out of range (0..{})",
        LANES * W
    );
    let (c, bit) = (lane / LANES, lane % LANES);
    if (unk[c] >> bit) & 1 == 1 {
        Logic::X
    } else if (ones[c] >> bit) & 1 == 1 {
        Logic::One
    } else {
        Logic::Zero
    }
}

/// One combinational cell of the step program, flat and 4-byte
/// indexed: its output net and input nets (slots beyond the arity are
/// unused). The kind is its [`Run`]'s.
#[derive(Debug, Clone, Copy, Default)]
struct Op {
    out: u32,
    ins: [u32; 3],
}

/// A stretch of the step program whose cells share one kind: the ops
/// from the previous run's `end` (0 for the first run) to `end`.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: CellKind,
    end: u32,
}

/// The compiled step of a netlist: the combinational core as kind runs
/// in level order (see the module docs), and the flip-flops as
/// `(D net, Q net)` pairs in cell order.
#[derive(Debug, Clone)]
struct Program {
    ops: Vec<Op>,
    runs: Vec<Run>,
    dffs: Vec<(u32, u32)>,
}

impl Program {
    fn compile(netlist: &Netlist) -> Program {
        const KINDS: usize = CellKind::ALL.len();
        let cells = netlist.cells();
        // One pass in topological order stages every combinational cell
        // with its level: sources (inputs, flip-flop outputs) are 0, a
        // cell is one more than its deepest input. A cell nothing reads
        // joins the last level, so the primary outputs form one run.
        let mut level = vec![0u32; cells.len()];
        let mut staged = Vec::with_capacity(cells.len());
        let mut dffs = Vec::new();
        let mut depth = 0;
        for &id in netlist.topo_order() {
            let cell = &cells[id.index()];
            match cell.kind {
                CellKind::Input => continue,
                CellKind::Dff => {
                    dffs.push((cell.inputs[0].0, id.0));
                    continue;
                }
                _ => {}
            }
            let mut op = Op {
                out: id.0,
                ins: [0; 3],
            };
            let mut deepest = 0;
            for (slot, net) in op.ins.iter_mut().zip(cell.inputs.iter()) {
                *slot = net.0;
                deepest = deepest.max(level[net.index()]);
            }
            level[id.index()] = deepest + 1;
            depth = depth.max(deepest + 1);
            let sinkless = netlist.fanout(NetId(id.0)).is_empty();
            staged.push((op, if sinkless { u32::MAX } else { deepest + 1 }, cell.kind));
        }
        // Counting sort on (level, kind): bucket `(level - 1) * KINDS +
        // kind`, every level >= 1.
        let key = |&(_, level, kind): &(Op, u32, CellKind)| {
            (level.min(depth) as usize - 1) * KINDS + kind as usize
        };
        let mut bucket_end = vec![0u32; depth as usize * KINDS];
        for cell in &staged {
            bucket_end[key(cell)] += 1;
        }
        let mut next = 0;
        for slot in &mut bucket_end {
            (*slot, next) = (next, next + *slot);
        }
        // `bucket_end` now holds each bucket's start; placing a cell
        // advances it, so it ends up holding each bucket's end.
        let mut ops = vec![Op::default(); staged.len()];
        for cell in &staged {
            let slot = &mut bucket_end[key(cell)];
            ops[*slot as usize] = cell.0;
            *slot += 1;
        }
        let mut runs: Vec<Run> = Vec::new();
        let mut start = 0;
        for (k, &end) in bucket_end.iter().enumerate() {
            if end == start {
                continue;
            }
            let kind = cells[ops[start as usize].out as usize].kind;
            debug_assert_eq!(kind as usize, k % KINDS);
            // Adjacent same-kind buckets of consecutive levels stay in
            // level order, so they merge into one run.
            match runs.last_mut() {
                Some(run) if run.kind == kind => run.end = end,
                _ => runs.push(Run { kind, end }),
            }
            start = end;
        }
        Program { ops, runs, dffs }
    }
}

/// Where a step's toggle masks are counted: the summed total, and the
/// per-lane counters when they are tracked.
struct Tally<'t, const W: usize> {
    total: u64,
    lanes: Option<&'t mut LaneCounters<W>>,
}

impl<const W: usize> Tally<'_, W> {
    #[inline(always)]
    fn add(&mut self, toggled: [u64; W]) {
        let mut any = 0u64;
        for &t in &toggled {
            any |= t;
        }
        if any != 0 {
            for &t in &toggled {
                self.total += u64::from(t.count_ones());
            }
            if let Some(lanes) = self.lanes.as_deref_mut() {
                lanes.add(&toggled);
            }
        }
    }
}

/// Every net's two planes, one `[u64; W]` word per net in each.
#[derive(Debug, Clone)]
struct Planes<const W: usize> {
    ones: Vec<[u64; W]>,
    unk: Vec<[u64; W]>,
}

impl<const W: usize> Planes<W> {
    /// `nets` nets, every lane `X`.
    fn new(nets: usize) -> Self {
        Self {
            ones: vec![[0; W]; nets],
            unk: vec![[u64::MAX; W]; nets],
        }
    }

    /// Net `net`'s `(ones, unk)` words; under the two-valued program
    /// (`KNOWN`) the `unk` plane is all zero and is not read.
    #[inline(always)]
    fn get<const KNOWN: bool>(&self, net: u32) -> ([u64; W], [u64; W]) {
        let n = net as usize;
        if KNOWN {
            (self.ones[n], [0; W])
        } else {
            (self.ones[n], self.unk[n])
        }
    }

    /// Stores a net's new words, counting a logic cell's known↔known
    /// toggles and OR-ing its `X` lanes into `x_seen`. `ones` is 0 on
    /// `X` lanes (invariant), so the XOR is exact.
    #[inline(always)]
    fn store<const KNOWN: bool>(
        &mut self,
        net: u32,
        (ones, unk): ([u64; W], [u64; W]),
        logic: bool,
        tally: &mut Tally<'_, W>,
        x_seen: &mut u64,
    ) {
        let n = net as usize;
        let old_ones = core::mem::replace(&mut self.ones[n], ones);
        let old_unk = if KNOWN {
            [0; W]
        } else {
            for &u in &unk {
                *x_seen |= u;
            }
            core::mem::replace(&mut self.unk[n], unk)
        };
        if logic {
            let mut toggled = [0u64; W];
            for c in 0..W {
                toggled[c] = (old_ones[c] ^ ones[c]) & !(old_unk[c] | unk[c]);
            }
            tally.add(toggled);
        }
    }

    /// Evaluates one run of `ARITY`-input cells with gate function `f`.
    #[inline(always)]
    fn run<const KNOWN: bool, const ARITY: usize>(
        &mut self,
        ops: &[Op],
        logic: bool,
        tally: &mut Tally<'_, W>,
        x_seen: &mut u64,
        f: impl Fn(Chunk, Chunk, Chunk) -> Chunk,
    ) {
        for op in ops {
            let pin = |k: usize| {
                if k < ARITY {
                    self.get::<KNOWN>(op.ins[k])
                } else {
                    ([0; W], [0; W])
                }
            };
            let (a, b, c) = (pin(0), pin(1), pin(2));
            let (mut ones, mut unk) = ([0u64; W], [0u64; W]);
            for i in 0..W {
                let chunk = |(o, u): ([u64; W], [u64; W])| Chunk {
                    ones: o[i],
                    unk: u[i],
                };
                let r = f(chunk(a), chunk(b), chunk(c));
                ones[i] = r.ones;
                if !KNOWN {
                    unk[i] = r.unk;
                }
            }
            self.store::<KNOWN>(op.out, (ones, unk), logic, tally, x_seen);
        }
    }

    /// Evaluates the whole combinational core once, run by run. Only
    /// primary outputs and constant drivers are uncounted (see
    /// [`CellKind::is_logic`]).
    fn exec<const KNOWN: bool>(
        &mut self,
        program: &Program,
        tally: &mut Tally<'_, W>,
        x_seen: &mut u64,
    ) {
        let mut start = 0;
        for run in &program.runs {
            let ops = &program.ops[start..run.end as usize];
            start = run.end as usize;
            let (t, x) = (&mut *tally, &mut *x_seen);
            match run.kind {
                // Excluded from the program at compile time.
                CellKind::Input | CellKind::Dff => {}
                // A stored constant never changes.
                CellKind::Const0 | CellKind::Const1 if KNOWN => {}
                CellKind::Const0 => {
                    self.run::<KNOWN, 0>(ops, false, t, x, |_, _, _| Chunk::default())
                }
                CellKind::Const1 => self.run::<KNOWN, 0>(ops, false, t, x, |_, _, _| Chunk {
                    ones: u64::MAX,
                    unk: 0,
                }),
                CellKind::Output => self.run::<KNOWN, 1>(ops, false, t, x, |a, _, _| a),
                CellKind::Buf => self.run::<KNOWN, 1>(ops, true, t, x, |a, _, _| a),
                CellKind::Inv => self.run::<KNOWN, 1>(ops, true, t, x, |a, _, _| inv(a)),
                CellKind::And2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| and2(a, b)),
                CellKind::Nand2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| inv(and2(a, b))),
                CellKind::Or2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| or2(a, b)),
                CellKind::Nor2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| inv(or2(a, b))),
                CellKind::Xor2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| xor2(a, b)),
                CellKind::Xnor2 => self.run::<KNOWN, 2>(ops, true, t, x, |a, b, _| inv(xor2(a, b))),
                CellKind::Xor3 => self.run::<KNOWN, 3>(ops, true, t, x, xor3),
                CellKind::Maj3 => self.run::<KNOWN, 3>(ops, true, t, x, maj3),
                CellKind::Mux2 => self.run::<KNOWN, 3>(ops, true, t, x, mux2),
            }
        }
    }
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
/// lanes per pass, amortising the per-cell work that does not grow
/// with the lane count (loading the op, indexing its nets) over 4–8×
/// more streams.
///
/// Construction compiles the combinational core into runs of one cell
/// kind per topological level, each evaluated by a loop specialised to
/// its kind. Steps run a three-valued program until the first step that
/// leaves no `X` lane on any net, and a two-valued program on the
/// `ones` plane alone from then on: the setters only drive known
/// levels, so no `X` can come back. Neither choice is visible in values
/// or counts.
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
    /// Current planes of every net.
    values: Planes<W>,
    /// Pending primary-input words applied at the next step, indexed
    /// by cell.
    input_next: Planes<W>,
    program: Program,
    /// Reusable buffer for the pre-edge D words (two-phase capture).
    dff_scratch: Vec<([u64; W], [u64; W])>,
    /// Set once a step has stored no `X`: the two-valued program runs
    /// from then on.
    known: bool,
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
        let program = Program::compile(netlist);
        Self {
            netlist,
            values: Planes::new(netlist.cells().len()),
            input_next: Planes::new(netlist.cells().len()),
            dff_scratch: Vec::with_capacity(program.dffs.len()),
            program,
            known: false,
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
        self.input_next.ones[input.index()].copy_from_slice(ones);
        self.input_next.unk[input.index()] = [0; W];
    }

    /// Sets one primary input to the same known level in every lane
    /// (shared control signals such as `rst`).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell.
    pub fn set_input_all_lanes(&mut self, input: CellId, value: bool) {
        self.set_input_plane(input, &[if value { u64::MAX } else { 0 }; W]);
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
    pub fn value(&self, net: NetId, lane: usize) -> Logic {
        let n = net.index();
        lane_logic(&self.values.ones[n], &self.values.unk[n], lane)
    }

    /// Every net's current value in one lane, indexed by net: the
    /// lane's whole state between steps, from which
    /// [`crate::TimedLanes`] resumes the lane on the event wheel.
    pub fn lane_values(&self, lane: usize) -> Vec<Logic> {
        let Planes { ones, unk } = &self.values;
        ones.iter()
            .zip(unk)
            .map(|(o, u)| lane_logic(o, u, lane))
            .collect()
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
            .map(|&id| self.value(self.netlist.cell(id).inputs[0], lane))
            .collect();
        decode_bus(&bits)
    }

    /// Advances one clock cycle in every lane: clocks every DFF
    /// (capturing the D word settled in the previous cycle), applies
    /// pending inputs, then evaluates the combinational core once in
    /// level order — the exact step semantics of
    /// [`crate::ZeroDelaySim`], a whole plane of lanes at a time.
    pub fn step(&mut self) {
        if self.known {
            self.step_with::<true>();
        } else {
            // Every net was just stored, so a step that stored no `X`
            // lane leaves the plane `X`-free, and it stays so.
            self.known = self.step_with::<false>() == 0;
        }
        self.cycle += 1;
    }

    /// One step under the two-valued (`KNOWN`) or three-valued program;
    /// returns the OR of every `unk` word stored (0 when `KNOWN`).
    #[inline(always)]
    fn step_with<const KNOWN: bool>(&mut self) -> u64 {
        let Self {
            netlist,
            values,
            input_next,
            program,
            dff_scratch,
            lane_track,
            ..
        } = self;
        let mut tally = Tally {
            total: 0,
            lanes: lane_track.as_mut(),
        };
        let mut x_seen = 0u64;
        // 1. Sample every D pin first (pre-edge words; DFF-to-DFF
        // chains must not see this cycle's Q), then update all Q
        // outputs.
        dff_scratch.clear();
        dff_scratch.extend(program.dffs.iter().map(|&(d, _)| values.get::<KNOWN>(d)));
        for (&(_, q), &words) in program.dffs.iter().zip(dff_scratch.iter()) {
            values.store::<KNOWN>(q, words, true, &mut tally, &mut x_seen);
        }
        // 2. Apply primary inputs (uncounted).
        for &id in netlist.primary_inputs() {
            let words = input_next.get::<KNOWN>(id.0);
            values.store::<KNOWN>(id.0, words, false, &mut tally, &mut x_seen);
        }
        // 3. One pass over the combinational program.
        values.exec::<KNOWN>(program, &mut tally, &mut x_seen);
        self.transitions_total += tally.total;
        x_seen
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

    /// A net's planes in tests: `(ones, unk)`.
    type Words<const W: usize> = ([u64; W], [u64; W]);

    /// Runs a one-op step program of `kind` under the two-valued
    /// (`KNOWN`) or three-valued program: nets `0..ins.len()` hold
    /// `ins`, the output net (the next one) holds `old`. Returns the
    /// output's new words and the counted transitions.
    fn exec_one<const W: usize, const KNOWN: bool>(
        kind: CellKind,
        ins: &[Words<W>],
        old: Words<W>,
    ) -> (Words<W>, u64) {
        let out = ins.len();
        let mut planes = Planes::<W>::new(out + 1);
        for (n, &(o, u)) in ins.iter().chain([&old]).enumerate() {
            planes.ones[n] = o;
            planes.unk[n] = u;
        }
        let mut op = Op {
            out: out as u32,
            ins: [0; 3],
        };
        for (k, slot) in op.ins.iter_mut().take(out).enumerate() {
            *slot = k as u32;
        }
        let program = Program {
            ops: vec![op],
            runs: vec![Run { kind, end: 1 }],
            dffs: Vec::new(),
        };
        let mut tally = Tally {
            total: 0,
            lanes: None,
        };
        planes.exec::<KNOWN>(&program, &mut tally, &mut 0);
        ((planes.ones[out], planes.unk[out]), tally.total)
    }

    /// Every kind the step program holds, every three-valued input
    /// combination and old output level, one combination per lane: the
    /// three-valued run's output equals the scalar `CellKind::eval` in
    /// every lane and counts exactly the scalar engine's known↔known
    /// toggles of logic cells; the two-valued run does the same on
    /// known levels. At one, four and eight chunks (only the wider
    /// planes have a lane for every three-input combination).
    #[test]
    fn eval_wide_matches_scalar_eval_exhaustively() {
        fn check<const W: usize, const KNOWN: bool>() {
            let levels: &[Logic] = if KNOWN { &[Zero, One] } else { &[Zero, One, X] };
            for kind in CellKind::ALL {
                // Flip-flops and inputs update in their own step
                // phases; the two-valued program never re-stores a
                // constant.
                let skip =
                    matches!(kind, CellKind::Input | CellKind::Dff) || (KNOWN && kind.arity() == 0);
                if skip {
                    continue;
                }
                // Lane `L` reads digit `k` of `L` in base `levels.len()`
                // as input `k`, and the next digit as the old output.
                let level = |lane: usize, k: usize| {
                    levels[lane / levels.len().pow(k as u32) % levels.len()]
                };
                let words = |k: usize| {
                    let mut w: Words<W> = ([0; W], [0; W]);
                    for lane in 0..LANES * W {
                        let bit = 1 << (lane % LANES);
                        match level(lane, k) {
                            Zero => {}
                            One => w.0[lane / LANES] |= bit,
                            X => w.1[lane / LANES] |= bit,
                        }
                    }
                    w
                };
                let arity = kind.arity();
                let ins: Vec<Words<W>> = (0..arity).map(words).collect();
                let ((ones, unk), counted) = exec_one::<W, KNOWN>(kind, &ins, words(arity));
                let mut want_count = 0;
                for lane in 0..LANES * W {
                    let scalar: Vec<Logic> = (0..arity).map(|k| level(lane, k)).collect();
                    let (want, old) = (kind.eval(&scalar), level(lane, arity));
                    let got = lane_logic(&ones, &unk, lane);
                    assert_eq!(got, want, "{kind} {scalar:?} lane {lane} W={W} {KNOWN}");
                    if kind.is_logic() && old.is_known() && want.is_known() && old != want {
                        want_count += 1;
                    }
                }
                assert_eq!(counted, want_count, "{kind} toggles W={W} {KNOWN}");
            }
        }
        check::<1, false>();
        check::<4, false>();
        check::<8, false>();
        check::<1, true>();
        check::<4, true>();
        check::<8, true>();
    }

    #[test]
    fn word_invariant_holds_after_eval() {
        let a = (
            [0b0110, 0, 0b0110, u64::MAX >> 1],
            [0b1000, u64::MAX, 0b1000, 0],
        );
        let b = ([0b0101, 0b0101, 0, 1 << 63], [0b0010, 0b0010, u64::MAX, 0]);
        for kind in [
            CellKind::And2,
            CellKind::Nand2,
            CellKind::Or2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
        ] {
            let ((ones, unk), _) = exec_one::<4, false>(kind, &[a, b], a);
            for c in 0..4 {
                assert_eq!(ones[c] & unk[c], 0, "{kind} chunk {c}");
            }
        }
    }

    /// A `bits`-bit ripple-carry adder from a constant carry-in, its
    /// sums registered: a deep chain of alternating kinds.
    fn registered_ripple_adder(bits: usize) -> Netlist {
        let mut b = NetlistBuilder::new("rca");
        let a: Vec<_> = (0..bits).map(|i| b.add_input(format!("a{i}"))).collect();
        let x: Vec<_> = (0..bits).map(|i| b.add_input(format!("b{i}"))).collect();
        let mut carry = b.add_cell(CellKind::Const0, &[]);
        for i in 0..bits {
            let s = b.add_cell(CellKind::Xor3, &[a[i], x[i], carry]);
            carry = b.add_cell(CellKind::Maj3, &[a[i], x[i], carry]);
            let q = b.add_cell(CellKind::Dff, &[s]);
            b.add_output(format!("p{i}"), q);
        }
        b.add_output(format!("p{bits}"), carry);
        b.build().unwrap()
    }

    /// The compiled program holds every combinational cell once, in
    /// runs of one kind ordered after every cell they read, with the
    /// primary outputs in one final run.
    #[test]
    fn program_runs_are_level_ordered_kind_runs() {
        let nl = registered_ripple_adder(6);
        let program = Program::compile(&nl);
        let mut placed: Vec<bool> = nl
            .cells()
            .iter()
            .map(|c| matches!(c.kind, CellKind::Input | CellKind::Dff))
            .collect();
        let mut start = 0;
        for run in &program.runs {
            for op in &program.ops[start..run.end as usize] {
                let cell = nl.cell(CellId(op.out));
                assert_eq!(cell.kind, run.kind, "{}", cell.name);
                for net in cell.inputs.iter() {
                    assert!(placed[net.index()], "{} reads {net:?} early", cell.name);
                }
                placed[op.out as usize] = true;
            }
            start = run.end as usize;
        }
        assert_eq!(start, program.ops.len());
        assert!(placed.iter().all(|&p| p), "every cell is placed");
        let outputs: Vec<usize> = (0..program.runs.len())
            .filter(|&r| program.runs[r].kind == CellKind::Output)
            .collect();
        assert_eq!(outputs, [program.runs.len() - 1]);
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
