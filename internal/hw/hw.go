// Package hw promotes the simulated machine's hardware description to a
// first-class serializable value. Historically the cache geometries, TLB
// capacities, write-buffer shape, predictor size, and issue width were
// compile-time constants in internal/sim; the what-if engine (cmd/dcpiwhatif)
// needs to perturb them per run, cache runs under a content key that includes
// the perturbation, and round-trip the description through snapshots.
//
// Config follows the daemon.FaultPlan convention: the zero value means "the
// default 21164 machine" and renders as the empty string, so default-config
// run keys — and therefore every pre-existing run-cache entry — are
// byte-identical to what they were before this package existed. Parse and
// String are canonical inverses: Parse(c.String()) == c for any valid Config,
// and any spec that resolves to the default machine parses to the zero value.
package hw

import (
	"fmt"
	"strconv"
	"strings"

	"dcpi/internal/mem"
	"dcpi/internal/pipeline"
)

// MaxIssueWidth is the widest issue group the simulator supports; the CPU's
// preallocated group buffers are sized by it.
const MaxIssueWidth = 4

// Geometry describes one cache level: total size, line size, associativity.
type Geometry struct {
	Size     int // total bytes (power of two)
	LineSize int // bytes per line (power of two)
	Assoc    int // ways (power of two); 1 = direct mapped
}

// Sets returns the number of sets the geometry implies.
func (g Geometry) Sets() int {
	if g.LineSize <= 0 || g.Assoc <= 0 {
		return 0
	}
	return g.Size / (g.LineSize * g.Assoc)
}

// CacheConfig converts the geometry to the mem package's cache configuration.
func (g Geometry) CacheConfig(name string) mem.CacheConfig {
	return mem.CacheConfig{Name: name, Size: g.Size, LineSize: g.LineSize, Assoc: g.Assoc}
}

func (g Geometry) format() string {
	return fmt.Sprintf("%s/%d/%d", formatSize(g.Size), g.LineSize, g.Assoc)
}

// Config is the full hardware description: the pipeline timing model plus
// the memory-system structure. The zero value means the 21164 defaults
// (Default); use Resolved before reading fields.
type Config struct {
	// Model holds issue/latency timing (see pipeline.Model). A zero Model
	// inside an otherwise non-zero Config is invalid — Parse always fills
	// it in from the defaults.
	Model pipeline.Model

	ICache Geometry
	DCache Geometry
	Board  Geometry // board-level (L3) cache

	ITBEntries int // instruction TLB capacity (fully associative)
	DTBEntries int // data TLB capacity (fully associative)

	WBEntries     int   // write-buffer entries
	WBDrainCycles int64 // per-line retire time; 0 = stores retire instantly

	PredEntries int // branch-predictor table entries (power of two)
	IssueWidth  int // instructions per issue group, 1..MaxIssueWidth
}

// Default returns the 21164-like machine the simulator has always modeled
// (DESIGN.md §3): 8K direct-mapped split L1s with 32-byte lines, a 2M board
// cache, 48/64-entry TLBs, a six-entry write buffer draining one 32-byte
// line per 120 cycles, a 512-entry predictor, and dual issue.
func Default() Config {
	return Config{
		Model:         pipeline.Default(),
		ICache:        Geometry{Size: 8 << 10, LineSize: 32, Assoc: 1},
		DCache:        Geometry{Size: 8 << 10, LineSize: 32, Assoc: 1},
		Board:         Geometry{Size: 2 << 20, LineSize: 64, Assoc: 1},
		ITBEntries:    48,
		DTBEntries:    64,
		WBEntries:     6,
		WBDrainCycles: 120,
		PredEntries:   512,
		IssueWidth:    2,
	}
}

// Resolved maps the zero value to Default and returns any other config
// unchanged. Non-zero configs must be fully specified (Parse guarantees
// this; hand-built configs should start from Default()).
func (c Config) Resolved() Config {
	if c == (Config{}) {
		return Default()
	}
	return c
}

// IsDefault reports whether the config describes the default machine.
func (c Config) IsDefault() bool { return c.Resolved() == Default() }

// Limits that keep parsed configs simulable: fuzzed or user-supplied specs
// must not be able to demand terabyte caches or million-cycle loads.
const (
	maxCacheSize  = 1 << 28 // 256 MB
	maxLineSize   = 1 << 10
	minLineSize   = mem.MinLineSize
	maxTLBEntries = 1 << 16
	maxWBEntries  = 1 << 12
	maxCycles     = 1 << 20
)

func validGeometry(name string, g Geometry) error {
	switch {
	case g.Size <= 0 || g.Size&(g.Size-1) != 0 || g.Size > maxCacheSize:
		return fmt.Errorf("hw: %s size %d not a power of two in [%d, %d]",
			name, g.Size, minLineSize, maxCacheSize)
	case g.LineSize < minLineSize || g.LineSize > maxLineSize || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("hw: %s line size %d not a power of two in [%d, %d]",
			name, g.LineSize, minLineSize, maxLineSize)
	case g.Assoc <= 0 || g.Assoc&(g.Assoc-1) != 0:
		return fmt.Errorf("hw: %s associativity %d not a power of two", name, g.Assoc)
	case g.Size < g.LineSize*g.Assoc:
		return fmt.Errorf("hw: %s size %d smaller than one %d-way set of %dB lines",
			name, g.Size, g.Assoc, g.LineSize)
	case g.Assoc > g.Sets():
		return fmt.Errorf("hw: %s associativity %d exceeds %d sets", name, g.Assoc, g.Sets())
	}
	return nil
}

func validCycles(name string, v int64, min int64) error {
	if v < min || v > maxCycles {
		return fmt.Errorf("hw: %s %d outside [%d, %d]", name, v, min, maxCycles)
	}
	return nil
}

// Validate checks the resolved config for consistency: power-of-two
// geometries with assoc <= sets, positive result latencies, bounded
// penalties, and an issue width the simulator supports.
func (c Config) Validate() error {
	r := c.Resolved()
	if err := validGeometry("icache", r.ICache); err != nil {
		return err
	}
	if err := validGeometry("dcache", r.DCache); err != nil {
		return err
	}
	if err := validGeometry("board", r.Board); err != nil {
		return err
	}
	if r.ITBEntries < 1 || r.ITBEntries > maxTLBEntries {
		return fmt.Errorf("hw: itb entries %d outside [1, %d]", r.ITBEntries, maxTLBEntries)
	}
	if r.DTBEntries < 1 || r.DTBEntries > maxTLBEntries {
		return fmt.Errorf("hw: dtb entries %d outside [1, %d]", r.DTBEntries, maxTLBEntries)
	}
	if r.WBEntries < 1 || r.WBEntries > maxWBEntries {
		return fmt.Errorf("hw: wb entries %d outside [1, %d]", r.WBEntries, maxWBEntries)
	}
	if err := validCycles("wb drain", r.WBDrainCycles, 0); err != nil {
		return err
	}
	if r.PredEntries < 1 || r.PredEntries > 1<<20 || r.PredEntries&(r.PredEntries-1) != 0 {
		return fmt.Errorf("hw: predictor entries %d not a power of two in [1, %d]", r.PredEntries, 1<<20)
	}
	if r.IssueWidth < 1 || r.IssueWidth > MaxIssueWidth {
		return fmt.Errorf("hw: issue width %d outside [1, %d]", r.IssueWidth, MaxIssueWidth)
	}
	m := r.Model
	for _, f := range []struct {
		name string
		v    int64
		min  int64
	}{
		{"intlat", m.IntLat, 1},
		{"cmovlat", m.CMovLat, 1},
		{"loadlat", m.LoadLat, 1},
		{"mullat", m.MulLat, 1},
		{"fplat", m.FPLat, 1},
		{"divlat", m.DivLat, 1},
		{"mulbusy", m.MulBusy, 1},
		{"divbusy", m.DivBusy, 1},
		{"l2lat", m.L2Lat, 1},
		{"memlat", m.MemLat, 1},
		{"tlbmiss", m.TLBMissPenalty, 0},
		{"mispredict", m.MispredictPenalty, 0},
		{"takenbubble", m.TakenBranchBubble, 0},
	} {
		if err := validCycles(f.name, f.v, f.min); err != nil {
			return err
		}
	}
	return nil
}

// String renders the config in the canonical form Parse accepts: only the
// fields that differ from the default machine, in a fixed order, so equal
// configs render identically and the default renders as "". The rendering
// joins runner content keys, so it must stay byte-stable.
func (c Config) String() string {
	r, d := c.Resolved(), Default()
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	if r.ICache != d.ICache {
		add("icache", r.ICache.format())
	}
	if r.DCache != d.DCache {
		add("dcache", r.DCache.format())
	}
	if r.Board != d.Board {
		add("board", r.Board.format())
	}
	if r.ITBEntries != d.ITBEntries {
		add("itb", strconv.Itoa(r.ITBEntries))
	}
	if r.DTBEntries != d.DTBEntries {
		add("dtb", strconv.Itoa(r.DTBEntries))
	}
	if r.WBEntries != d.WBEntries || r.WBDrainCycles != d.WBDrainCycles {
		add("wb", fmt.Sprintf("%d/%d", r.WBEntries, r.WBDrainCycles))
	}
	if r.PredEntries != d.PredEntries {
		add("pred", strconv.Itoa(r.PredEntries))
	}
	if r.IssueWidth != d.IssueWidth {
		add("issue", strconv.Itoa(r.IssueWidth))
	}
	for _, f := range []struct {
		key  string
		v, d int64
	}{
		{"intlat", r.Model.IntLat, d.Model.IntLat},
		{"cmovlat", r.Model.CMovLat, d.Model.CMovLat},
		{"loadlat", r.Model.LoadLat, d.Model.LoadLat},
		{"mullat", r.Model.MulLat, d.Model.MulLat},
		{"fplat", r.Model.FPLat, d.Model.FPLat},
		{"divlat", r.Model.DivLat, d.Model.DivLat},
		{"mulbusy", r.Model.MulBusy, d.Model.MulBusy},
		{"divbusy", r.Model.DivBusy, d.Model.DivBusy},
		{"l2lat", r.Model.L2Lat, d.Model.L2Lat},
		{"memlat", r.Model.MemLat, d.Model.MemLat},
		{"tlbmiss", r.Model.TLBMissPenalty, d.Model.TLBMissPenalty},
		{"mispredict", r.Model.MispredictPenalty, d.Model.MispredictPenalty},
		{"takenbubble", r.Model.TakenBranchBubble, d.Model.TakenBranchBubble},
	} {
		if f.v != f.d {
			add(f.key, strconv.FormatInt(f.v, 10))
		}
	}
	return strings.Join(parts, ",")
}

// Parse parses a comma-separated hardware spec. Unnamed fields keep their
// default (21164) values, so "icache=16K/32/1" is a complete machine. The
// accepted keys, in canonical order:
//
//	icache=SIZE/LINE/ASSOC   e.g. icache=16K/32/2 (sizes take K/M suffixes)
//	dcache=SIZE/LINE/ASSOC
//	board=SIZE/LINE/ASSOC
//	itb=N                    instruction-TLB entries
//	dtb=N                    data-TLB entries
//	wb=ENTRIES/DRAIN         write buffer shape; DRAIN=0 retires instantly
//	pred=N                   branch-predictor entries (power of two)
//	issue=N                  issue width, 1..4
//	intlat, cmovlat, loadlat, mullat, fplat, divlat   result latencies
//	mulbusy, divbusy         functional-unit occupancy
//	l2lat, memlat            board-cache / memory fill latencies
//	tlbmiss, mispredict, takenbubble                  dynamic penalties
//
// Size suffixes are binary (K=1024, M=1048576). A spec equal to the default
// machine parses to the zero Config, so value equality works across
// spellings of the same machine.
func Parse(spec string) (Config, error) {
	c := Default()
	if strings.TrimSpace(spec) == "" {
		return Config{}, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("hw: %q is not key=value", field)
		}
		var err error
		switch key {
		case "icache":
			c.ICache, err = parseGeometry(val)
		case "dcache":
			c.DCache, err = parseGeometry(val)
		case "board":
			c.Board, err = parseGeometry(val)
		case "itb":
			c.ITBEntries, err = parseInt(val)
		case "dtb":
			c.DTBEntries, err = parseInt(val)
		case "wb":
			ents, drain, ok := strings.Cut(val, "/")
			if !ok {
				return Config{}, fmt.Errorf("hw: wb wants ENTRIES/DRAIN, got %q", val)
			}
			if c.WBEntries, err = parseInt(ents); err == nil {
				c.WBDrainCycles, err = parseInt64(drain)
			}
		case "pred":
			c.PredEntries, err = parseInt(val)
		case "issue":
			c.IssueWidth, err = parseInt(val)
		case "intlat":
			c.Model.IntLat, err = parseInt64(val)
		case "cmovlat":
			c.Model.CMovLat, err = parseInt64(val)
		case "loadlat":
			c.Model.LoadLat, err = parseInt64(val)
		case "mullat":
			c.Model.MulLat, err = parseInt64(val)
		case "fplat":
			c.Model.FPLat, err = parseInt64(val)
		case "divlat":
			c.Model.DivLat, err = parseInt64(val)
		case "mulbusy":
			c.Model.MulBusy, err = parseInt64(val)
		case "divbusy":
			c.Model.DivBusy, err = parseInt64(val)
		case "l2lat":
			c.Model.L2Lat, err = parseInt64(val)
		case "memlat":
			c.Model.MemLat, err = parseInt64(val)
		case "tlbmiss":
			c.Model.TLBMissPenalty, err = parseInt64(val)
		case "mispredict":
			c.Model.MispredictPenalty, err = parseInt64(val)
		case "takenbubble":
			c.Model.TakenBranchBubble, err = parseInt64(val)
		default:
			return Config{}, fmt.Errorf("hw: unknown key %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	if c == Default() {
		return Config{}, nil
	}
	return c, nil
}

func parseGeometry(val string) (Geometry, error) {
	f := strings.Split(val, "/")
	if len(f) != 3 {
		return Geometry{}, fmt.Errorf("hw: geometry wants SIZE/LINE/ASSOC, got %q", val)
	}
	size, err := parseSize(f[0])
	if err != nil {
		return Geometry{}, err
	}
	line, err := parseInt(f[1])
	if err != nil {
		return Geometry{}, err
	}
	assoc, err := parseInt(f[2])
	if err != nil {
		return Geometry{}, err
	}
	return Geometry{Size: size, LineSize: line, Assoc: assoc}, nil
}

// formatSize renders a byte count with the largest exact binary suffix.
func formatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.Itoa(n>>20) + "M"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.Itoa(n>>10) + "K"
	}
	return strconv.Itoa(n)
}

// parseSize parses a byte count with an optional binary K/M suffix.
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > maxCacheSize/int64(mult) {
		return 0, fmt.Errorf("hw: bad size %q", s)
	}
	return int(n) * mult, nil
}

func parseInt(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > 1<<30 {
		return 0, fmt.Errorf("hw: bad count %q", s)
	}
	return int(n), nil
}

func parseInt64(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > 1<<30 {
		return 0, fmt.Errorf("hw: bad cycle count %q", s)
	}
	return n, nil
}
