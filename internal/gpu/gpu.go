// Package gpu describes the modeled GPU architecture: streaming
// multiprocessors, the programmable memory spaces of a heterogeneous memory
// system (HMS), cache geometry, and the GDDR5 DRAM topology.
//
// The default configuration approximates an NVIDIA Tesla K80 (Kepler), the
// platform evaluated by Huang & Li (CLUSTER 2017). All other packages take a
// *Config so alternative HMS designs can be described without code changes.
package gpu

import "fmt"

// MemSpace identifies one of the programmable memory components of the HMS.
// The data placement problem assigns each data array to one MemSpace.
type MemSpace uint8

const (
	// Global is off-chip GDDR DRAM cached only by the L2.
	Global MemSpace = iota
	// Shared is on-chip scratchpad memory, banked, scoped to a thread block.
	Shared
	// Constant is off-chip DRAM behind the per-SM constant cache; read-only,
	// optimized for broadcast (all lanes reading one address).
	Constant
	// Texture1D is off-chip DRAM behind the per-SM texture cache with a
	// linear (1D) layout.
	Texture1D
	// Texture2D is off-chip DRAM behind the texture cache with a 2D
	// block-swizzled layout giving 2D spatial locality.
	Texture2D

	// GlobalRemote is global memory on a different chiplet's stack, reached
	// across the interposer. Same cache path as Global, plus one interposer
	// crossing per off-chip request. Only legal on configs with HasRemote().
	GlobalRemote
	// ConstantRemote is constant memory backed by a remote stack.
	ConstantRemote
	// Texture1DRemote is linear texture memory backed by a remote stack.
	Texture1DRemote
	// Texture2DRemote is block-swizzled texture memory backed by a remote
	// stack.
	Texture2DRemote

	// NumSpaces is the number of memory spaces.
	NumSpaces = 9
)

// Spaces lists every memory space in declaration order.
var Spaces = [NumSpaces]MemSpace{
	Global, Shared, Constant, Texture1D, Texture2D,
	GlobalRemote, ConstantRemote, Texture1DRemote, Texture2DRemote,
}

// String returns the short name used throughout the paper's tables
// (G, S, C, T, 2T).
func (s MemSpace) String() string {
	switch s {
	case Global:
		return "G"
	case Shared:
		return "S"
	case Constant:
		return "C"
	case Texture1D:
		return "T"
	case Texture2D:
		return "2T"
	case GlobalRemote:
		return "rG"
	case ConstantRemote:
		return "rC"
	case Texture1DRemote:
		return "rT"
	case Texture2DRemote:
		return "r2T"
	}
	return fmt.Sprintf("MemSpace(%d)", uint8(s))
}

// LongString returns the full memory space name.
func (s MemSpace) LongString() string {
	switch s {
	case Global:
		return "global"
	case Shared:
		return "shared"
	case Constant:
		return "constant"
	case Texture1D:
		return "texture1D"
	case Texture2D:
		return "texture2D"
	case GlobalRemote:
		return "globalRemote"
	case ConstantRemote:
		return "constantRemote"
	case Texture1DRemote:
		return "texture1DRemote"
	case Texture2DRemote:
		return "texture2DRemote"
	}
	return fmt.Sprintf("MemSpace(%d)", uint8(s))
}

// OffChip reports whether the space is backed by off-chip GDDR DRAM.
func (s MemSpace) OffChip() bool { return s != Shared }

// Remote reports whether the space lives on another chiplet's memory stack,
// reached across the interposer. Remote spaces behave exactly like their
// Base() counterpart through the cache hierarchy; they only add the
// interposer crossing to each off-chip request.
func (s MemSpace) Remote() bool { return s >= GlobalRemote && s <= Texture2DRemote }

// Base returns the local counterpart of a remote space (GlobalRemote →
// Global, …) and the space itself for local spaces. Cache-path, address-mode,
// and coalescing logic switch on Base(); only capacity checks and the
// interposer latency term distinguish remote from local.
func (s MemSpace) Base() MemSpace {
	switch s {
	case GlobalRemote:
		return Global
	case ConstantRemote:
		return Constant
	case Texture1DRemote:
		return Texture1D
	case Texture2DRemote:
		return Texture2D
	}
	return s
}

// Writable reports whether a kernel may store to the space.
// Constant and texture memories are read-only from device code.
func (s MemSpace) Writable() bool {
	b := s.Base()
	return b == Global || b == Shared
}

// ParseSpace converts a short or long space name ("G", "2T", "rG",
// "shared", …).
func ParseSpace(name string) (MemSpace, error) {
	switch name {
	case "G", "g", "global":
		return Global, nil
	case "S", "s", "shared":
		return Shared, nil
	case "C", "c", "constant":
		return Constant, nil
	case "T", "t", "texture", "texture1D", "1T":
		return Texture1D, nil
	case "2T", "2t", "texture2D":
		return Texture2D, nil
	case "rG", "rg", "globalRemote":
		return GlobalRemote, nil
	case "rC", "rc", "constantRemote":
		return ConstantRemote, nil
	case "rT", "rt", "textureRemote", "texture1DRemote":
		return Texture1DRemote, nil
	case "r2T", "r2t", "texture2DRemote":
		return Texture2DRemote, nil
	}
	return Global, fmt.Errorf("gpu: unknown memory space %q", name)
}

// CacheGeometry describes one set-associative cache.
type CacheGeometry struct {
	SizeBytes int // total capacity
	LineBytes int // line (transaction) size
	Ways      int // associativity
}

// Sets returns the number of cache sets.
func (g CacheGeometry) Sets() int { return g.SizeBytes / (g.LineBytes * g.Ways) }

// DRAMTopology describes the GDDR5 organization visible to the models:
// a set of memory controllers (channels), each with one rank of independent
// banks, each bank fronted by a row buffer.
type DRAMTopology struct {
	Controllers int // M in the paper (6 for Kepler/Fermi)
	BanksPerCtl int // B in the paper (16 for GDDR5)
	RowBytes    int // bytes per DRAM row (row buffer size)
	ColumnBytes int // bytes per column access (burst)

	// Row buffer access latencies, nanoseconds, as a pointer-chase
	// microbenchmark observes them (Algorithm 1 on the K80): hit 352 ns,
	// miss 742 ns, conflict (dirty-row writeback + activate) 1008 ns.
	// These are end-to-end latencies of one isolated request.
	HitLatencyNS      float64
	MissLatencyNS     float64
	ConflictLatencyNS float64

	// Bank occupancy times, nanoseconds: how long the bank is busy per
	// request before it can serve the next one (tCCD-scale for row hits,
	// tRC-scale for activates). Occupancy, not latency, bounds bandwidth.
	BusyHitNS      float64
	BusyMissNS     float64
	BusyConflictNS float64

	// CtlBusyNS is the memory controller's data-bus occupancy per serviced
	// line; it caps per-channel bandwidth (LineBytes / CtlBusyNS).
	CtlBusyNS float64
}

// TotalBanks returns the number of independent banks in the system
// (NB in the paper's Eq 7).
func (d DRAMTopology) TotalBanks() int { return d.Controllers * d.BanksPerCtl }

// Interposer describes the chiplet interconnect of a multi-die package
// (Chung & Kim style): every off-chip request to a remote-placed array pays
// one crossing of LatencyNS on top of the normal DRAM path, and remote
// placements draw from the remote stacks' capacity pools rather than the
// local ones. The zero value means "no remote stacks" — a monolithic die.
//
// The model deliberately keeps one DRAM bank pool for local and remote
// traffic: the remote stack has its own banks in silicon, but merging them
// only makes the queueing term pessimistic for remote-heavy placements,
// which is the conservative direction for an advisor.
type Interposer struct {
	// LatencyNS is the one-way interposer crossing latency charged per
	// warp-level off-chip request to a remote-placed array.
	LatencyNS float64
	// RemoteGlobalBytes is the DRAM capacity of the remote stacks available
	// to global/texture placements; 0 disables remote placement entirely.
	RemoteGlobalBytes int
	// RemoteConstantBytes is the constant-segment capacity reachable on
	// remote stacks.
	RemoteConstantBytes int
}

// Config is a complete architecture description.
type Config struct {
	Name string

	// SM / execution parameters.
	SMs            int     // streaming multiprocessors
	WarpSize       int     // threads per warp
	SIMDWidth      int     // lanes issued per cycle per scheduler group
	ClockGHz       float64 // SM clock, GHz
	MaxWarpsPerSM  int     // occupancy ceiling
	AvgInstLatency float64 // pipeline depth proxy, cycles (FP latency, per [7])

	// Issue-slot cost of complicated (two-cycle) instructions such as DFMA.
	DoubleIssueOps bool

	// Memory transaction size for coalescing analysis (bytes loadable in one
	// cycle for a warp-level request).
	TransactionBytes int

	// Cache geometry. L2 is shared by global/constant/texture traffic;
	// constant and texture caches are per SM.
	L2       CacheGeometry
	Constant CacheGeometry
	Texture  CacheGeometry

	// Cache hit latency, cycles. The paper assumes a single cache hit latency
	// (the L2 latency) for all caches.
	CacheHitLatency float64

	// Shared memory.
	SharedBanks      int // banks (32 on Kepler)
	SharedBankBytes  int // bank word width in bytes (4 or 8)
	SharedLatency    float64
	SharedBytesPerSM int
	ConstantBytes    int // total constant memory (64 KiB)
	// GlobalBytes is the device DRAM capacity backing the global and texture
	// spaces; 0 means unbounded (capacity checks on DRAM-backed spaces are
	// skipped).
	GlobalBytes       int
	SharedCopyGBs     float64 // global→shared staging bandwidth, GB/s
	TextureBlockShift uint    // log2 of the 2D texture tile edge, in elements

	DRAM DRAMTopology

	// Interposer describes the chiplet interconnect; the zero value means a
	// monolithic die with no remote memory spaces.
	Interposer Interposer

	// MWPPeakBW caps memory warp parallelism by bandwidth (per [6]).
	MWPPeakBW float64
	// MaxPendingLoads bounds outstanding loads per warp in the timing
	// simulator (an MSHR/scoreboard proxy).
	MaxPendingLoads int
}

// KeplerK80 returns the default Tesla-K80-like configuration used throughout
// the reproduction. One GK210 die: 13 SMX, 6 memory controllers.
func KeplerK80() *Config {
	return &Config{
		Name:           "Tesla K80 (GK210, modeled)",
		SMs:            13,
		WarpSize:       32,
		SIMDWidth:      32,
		ClockGHz:       0.823,
		MaxWarpsPerSM:  64,
		AvgInstLatency: 18,

		TransactionBytes: 128,

		L2:       CacheGeometry{SizeBytes: 1536 << 10, LineBytes: 128, Ways: 16},
		Constant: CacheGeometry{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4},
		Texture:  CacheGeometry{SizeBytes: 12 << 10, LineBytes: 128, Ways: 4},

		CacheHitLatency: 36,

		SharedBanks:       32,
		SharedBankBytes:   4,
		SharedLatency:     3,
		SharedBytesPerSM:  48 << 10,
		ConstantBytes:     64 << 10,
		GlobalBytes:       12 << 30, // 12 GiB per GK210 die
		SharedCopyGBs:     160,
		TextureBlockShift: 4, // 16x16-element tiles

		DRAM: DRAMTopology{
			Controllers:       6,
			BanksPerCtl:       16,
			RowBytes:          2048,
			ColumnBytes:       32,
			HitLatencyNS:      352,
			MissLatencyNS:     742,
			ConflictLatencyNS: 1008,
			BusyHitNS:         8,
			BusyMissNS:        44,
			BusyConflictNS:    64,
			CtlBusyNS:         4,
		},

		MWPPeakBW:       48,
		MaxPendingLoads: 6,
	}
}

// ActiveSMs returns the number of SMs a launch with the given block count
// occupies (Eq 2's #active_SMs): launches with fewer blocks than SMs leave
// the rest idle.
func (c *Config) ActiveSMs(blocks int) int {
	if blocks < 1 {
		return 1
	}
	if blocks < c.SMs {
		return blocks
	}
	return c.SMs
}

// ResidentWarps returns the average resident warps per active SM of a launch
// with the given total warp and block counts, capped at MaxWarpsPerSM. The
// simulator and the model share this one occupancy estimate.
func (c *Config) ResidentWarps(totalWarps, blocks int) float64 {
	per := float64(totalWarps) / float64(c.ActiveSMs(blocks))
	if max := float64(c.MaxWarpsPerSM); per > max {
		return max
	}
	return per
}

// FermiC2050 returns a Tesla-C2050-like (Fermi) configuration — the GPU the
// paper's GPGPUSim inter-arrival study uses. It demonstrates that the models
// are architecture-parametric: fewer, smaller SMs, a smaller L2, and the
// same six-controller GDDR5 organization.
func FermiC2050() *Config {
	c := KeplerK80()
	c.Name = "Tesla C2050 (Fermi, modeled)"
	c.SMs = 14
	c.ClockGHz = 1.15
	c.MaxWarpsPerSM = 48
	c.AvgInstLatency = 22
	c.L2 = CacheGeometry{SizeBytes: 768 << 10, LineBytes: 128, Ways: 16}
	c.Texture = CacheGeometry{SizeBytes: 8 << 10, LineBytes: 128, Ways: 4}
	c.GlobalBytes = 3 << 30 // 3 GiB GDDR5
	c.MWPPeakBW = 32
	return c
}

// HBMClass returns a P100-generation configuration with a stacked-DRAM
// memory system: many more SMs, a 4 MiB L2, and 32 narrow HBM2 channels
// whose rows are smaller but far more numerous than GDDR5's, trading
// per-access latency for massive bank-level parallelism (Khairy et al.,
// PAPERS.md). It exercises the model where the memory-system bottleneck
// shifts from latency to parallelism.
func HBMClass() *Config {
	return &Config{
		Name:           "HBM-class (P100-like, modeled)",
		SMs:            56,
		WarpSize:       32,
		SIMDWidth:      32,
		ClockGHz:       1.328,
		MaxWarpsPerSM:  64,
		AvgInstLatency: 16,

		TransactionBytes: 128,

		L2:       CacheGeometry{SizeBytes: 4096 << 10, LineBytes: 128, Ways: 16},
		Constant: CacheGeometry{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4},
		Texture:  CacheGeometry{SizeBytes: 24 << 10, LineBytes: 128, Ways: 4},

		CacheHitLatency: 32,

		SharedBanks:       32,
		SharedBankBytes:   4,
		SharedLatency:     3,
		SharedBytesPerSM:  64 << 10,
		ConstantBytes:     64 << 10,
		GlobalBytes:       16 << 30, // 16 GiB HBM2
		SharedCopyGBs:     480,
		TextureBlockShift: 4,

		DRAM: DRAMTopology{
			Controllers:       32, // 4 stacks x 8 channels
			BanksPerCtl:       16,
			RowBytes:          1024, // HBM2 pseudo-channel row
			ColumnBytes:       32,
			HitLatencyNS:      222,
			MissLatencyNS:     404,
			ConflictLatencyNS: 545,
			BusyHitNS:         4,
			BusyMissNS:        28,
			BusyConflictNS:    42,
			CtlBusyNS:         2,
		},

		MWPPeakBW:       80,
		MaxPendingLoads: 8,
	}
}

// Chiplet returns a two-chiplet HBM package (Chung & Kim, PAPERS.md): each
// die owns a local HBM stack, and every off-chip space additionally exists
// in a remote variant backed by the other die's stack across the interposer.
// The local pools are deliberately tight — half the HBM stacks, a 32 KiB
// local constant segment — so placements that fit comfortably on a
// monolithic die face real capacity pressure here and the remote spaces
// become load-bearing, not decorative.
func Chiplet() *Config {
	c := HBMClass()
	c.Name = "Chiplet 2-die HBM (modeled)"
	c.SMs = 28                 // one die's share of the package
	c.L2.SizeBytes = 2048 << 10
	c.ConstantBytes = 32 << 10 // local constant segment, half of K80's
	c.GlobalBytes = 8 << 30    // local stack only
	c.DRAM.Controllers = 16    // local stack's channels
	c.Interposer = Interposer{
		LatencyNS:           96, // one crossing, each way amortized in
		RemoteGlobalBytes:   8 << 30,
		RemoteConstantBytes: 64 << 10,
	}
	return c
}

// CapacityBytes returns the byte capacity of one memory space on this
// architecture, or -1 when the space is unbounded for placement purposes:
// shared memory is the per-SM (per-block) scratchpad size, constant memory
// the total constant segment, and the DRAM-backed spaces (global, both
// textures) share the device memory size (unbounded when GlobalBytes is 0).
// It is the geometry source for placement capacity checks and for the fleet
// subsystem's default per-space budgets.
func (c *Config) CapacityBytes(s MemSpace) int {
	switch s {
	case Shared:
		return c.SharedBytesPerSM
	case Constant:
		return c.ConstantBytes
	case ConstantRemote:
		return c.Interposer.RemoteConstantBytes
	case GlobalRemote, Texture1DRemote, Texture2DRemote:
		return c.Interposer.RemoteGlobalBytes
	default: // Global, Texture1D, Texture2D: device DRAM
		if c.GlobalBytes > 0 {
			return c.GlobalBytes
		}
		return -1
	}
}

// HasRemote reports whether this architecture exposes remote memory spaces:
// a chiplet design with at least one reachable remote stack. Placement
// enumeration only offers the *Remote spaces when this is true.
func (c *Config) HasRemote() bool {
	return c.Interposer.RemoteGlobalBytes > 0 || c.Interposer.RemoteConstantBytes > 0
}

// CyclesPerNS converts nanoseconds into SM cycles.
func (c *Config) CyclesPerNS() float64 { return c.ClockGHz }

// NSPerCycle converts SM cycles into nanoseconds.
func (c *Config) NSPerCycle() float64 { return 1 / c.ClockGHz }

// Validate reports configuration inconsistencies.
func (c *Config) Validate() error {
	switch {
	case c.SMs <= 0:
		return fmt.Errorf("gpu: SMs must be positive, got %d", c.SMs)
	case c.WarpSize <= 0 || c.WarpSize&(c.WarpSize-1) != 0:
		return fmt.Errorf("gpu: warp size must be a positive power of two, got %d", c.WarpSize)
	case c.ClockGHz <= 0:
		return fmt.Errorf("gpu: clock must be positive, got %g", c.ClockGHz)
	case c.DRAM.Controllers <= 0 || c.DRAM.BanksPerCtl <= 0:
		return fmt.Errorf("gpu: DRAM topology %d controllers x %d banks invalid",
			c.DRAM.Controllers, c.DRAM.BanksPerCtl)
	case c.DRAM.RowBytes <= 0 || c.DRAM.RowBytes&(c.DRAM.RowBytes-1) != 0:
		return fmt.Errorf("gpu: DRAM row bytes must be a power of two, got %d", c.DRAM.RowBytes)
	case c.DRAM.ColumnBytes <= 0 || c.DRAM.ColumnBytes&(c.DRAM.ColumnBytes-1) != 0:
		return fmt.Errorf("gpu: DRAM column bytes must be a power of two, got %d", c.DRAM.ColumnBytes)
	case c.L2.SizeBytes < c.L2.LineBytes*c.L2.Ways:
		return fmt.Errorf("gpu: L2 geometry %+v has no sets", c.L2)
	case c.Constant.SizeBytes < c.Constant.LineBytes*c.Constant.Ways:
		return fmt.Errorf("gpu: constant cache geometry %+v has no sets", c.Constant)
	case c.Texture.SizeBytes < c.Texture.LineBytes*c.Texture.Ways:
		return fmt.Errorf("gpu: texture cache geometry %+v has no sets", c.Texture)
	case c.SharedBanks <= 0 || c.SharedBankBytes <= 0:
		return fmt.Errorf("gpu: shared memory %d banks x %d bytes invalid",
			c.SharedBanks, c.SharedBankBytes)
	case c.Interposer.LatencyNS < 0:
		return fmt.Errorf("gpu: interposer latency must be non-negative, got %g",
			c.Interposer.LatencyNS)
	case c.Interposer.RemoteGlobalBytes < 0 || c.Interposer.RemoteConstantBytes < 0:
		return fmt.Errorf("gpu: interposer remote capacities %d/%d must be non-negative",
			c.Interposer.RemoteGlobalBytes, c.Interposer.RemoteConstantBytes)
	case c.HasRemote() && c.Interposer.LatencyNS <= 0:
		return fmt.Errorf("gpu: chiplet config exposes remote stacks but has no interposer latency")
	}
	return nil
}
