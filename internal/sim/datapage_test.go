package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/hw"
	"dcpi/internal/loader"
	"dcpi/internal/mem"
	"dcpi/internal/pipeline"
)

// unmemoized is the memory path dataAccess composed before the data-page
// memo: every access looks its page up in the DTB and translates it. It owns
// its structures, built to the geometry and seed of the CPU it is checked
// against.
type unmemoized struct {
	model         pipeline.Model
	dtb           *mem.TLB
	pmap          *mem.PageMapper
	dcache, board *mem.Cache
	wb            *mem.WriteBuffer
}

func newUnmemoized(m *Machine) *unmemoized {
	h := m.HW
	return &unmemoized{
		model:  m.Model,
		dtb:    mem.NewTLB(h.DTBEntries),
		pmap:   mem.NewPageMapper(physPages, m.seed),
		dcache: mem.NewCache(h.DCache.CacheConfig("dcache")),
		board:  mem.NewCache(h.Board.CacheConfig("board")),
		wb:     mem.NewWriteBuffer(h.WBEntries, h.WBDrainCycles),
	}
}

// access is the un-memoized dataAccess. It also reports whether it counted
// a DTBMISS and a DMISS event.
func (u *unmemoized) access(pid uint32, addr uint64, store bool, at int64) (issueDelay, loadExtra int64, dtbMiss, dMiss bool) {
	asn := dataASN(pid, addr)
	if !u.dtb.Lookup(asn, mem.PageOf(addr)) {
		issueDelay += u.model.TLBMissPenalty
		dtbMiss = true
	}
	phys := u.pmap.Translate(asn, addr)
	if store {
		issueDelay += u.wb.Store(u.dcache.LineOf(phys), at+issueDelay)
		return issueDelay, 0, dtbMiss, false
	}
	if !u.dcache.Access(phys) {
		dMiss = true
		if u.board.Access(phys) {
			loadExtra = u.model.L2Lat
		} else {
			loadExtra = u.model.MemLat
		}
	}
	return issueDelay, loadExtra, dtbMiss, dMiss
}

// TestDataPageMemoIsExact drives a CPU's dataAccess and the un-memoized
// composition with one seeded stream of (PID, address, load or store) over a
// few user and kernel pages of three processes, and requires every step's
// (issueDelay, loadExtra) and events, and the final DTB and page-map
// counts, to agree. Most steps stay on the previous access's page, which is
// where the memo answers; the rest move to another page or another address
// space (the same virtual page under another PID is another page; a kernel
// page is one page under every PID). The small machine's four-entry DTB
// evicts, so the memo must leave the DTB's LRU order exactly as the lookups
// it skips would have.
func TestDataPageMemoIsExact(t *testing.T) {
	small := hw.Default()
	small.DTBEntries = 4
	small.DCache = hw.Geometry{Size: 1 << 10, LineSize: 32, Assoc: 2}
	small.Board = hw.Geometry{Size: 8 << 10, LineSize: 64, Assoc: 2}
	small.WBEntries = 2
	for _, tc := range []struct {
		name string
		hw   hw.Config
	}{{"default", hw.Default()}, {"small", small}} {
		t.Run(tc.name, func(t *testing.T) {
			kernel, abi := testKernel()
			m := NewMachine(Options{HW: tc.hw, ABI: abi, Loader: loader.New(kernel), Seed: 777,
				Profile: ProfileConfig{Mode: ModeMux}})
			c := m.CPUs[0]
			ref := newUnmemoized(m)
			procs := []*loader.Process{{PID: 1}, {PID: 2}, {PID: 3}}
			pages := []uint64{0x10000, 0x12000, 0x40000, 0x7ffe000, loader.KernelBase, loader.KernelBase + 0x6000}

			// No counter overflows during the stream: the events each step
			// counts are read off the active counter's residual.
			for ev := range c.evRemaining {
				c.evRemaining[ev] = 1 << 40
			}
			rng := rand.New(rand.NewSource(38))
			p, page := procs[0], pages[0]
			var at int64
			var events [NumEvents]int64
			for i := 0; i < 50_000; i++ {
				if rng.Intn(3) == 0 { // leave the page
					p, page = procs[rng.Intn(len(procs))], pages[rng.Intn(len(pages))]
				}
				addr := page + uint64(rng.Intn(mem.PageSize/8))*8
				store := rng.Intn(3) == 0
				at += int64(rng.Intn(40))
				c.evActive = EvDMiss
				if i%2 == 1 {
					c.evActive = EvDTBMiss
				}
				before := c.evRemaining[c.evActive]

				out := alpha.Outcome{MemAddr: addr, MemSize: 8, MemIsStore: store}
				gotDelay, gotExtra := c.dataAccess(p, 0x1000, &out, at)
				wantDelay, wantExtra, dtbMiss, dMiss := ref.access(p.PID, addr, store, at)
				if gotDelay != wantDelay || gotExtra != wantExtra {
					t.Fatalf("step %d (pid %d, %#x, store %v): (issueDelay, loadExtra) = (%d, %d), want (%d, %d)",
						i, p.PID, addr, store, gotDelay, gotExtra, wantDelay, wantExtra)
				}
				counted := before - c.evRemaining[c.evActive]
				want := int64(0)
				if (c.evActive == EvDTBMiss && dtbMiss) || (c.evActive == EvDMiss && dMiss) {
					want = 1
				}
				if counted != want {
					t.Fatalf("step %d (pid %d, %#x, store %v): %v counted %d times, want %d",
						i, p.PID, addr, store, c.evActive, counted, want)
				}
				events[c.evActive] += counted
			}

			got := fmt.Sprint(c.dtb.Hits, c.dtb.Misses, c.pmap.MappedPages(), c.dcache.Misses, c.board.Misses, c.wb.Overflows)
			want := fmt.Sprint(ref.dtb.Hits, ref.dtb.Misses, ref.pmap.MappedPages(), ref.dcache.Misses, ref.board.Misses, ref.wb.Overflows)
			if got != want {
				t.Errorf("DTB hits, misses, mapped pages, D-cache, board misses, WB overflows = %s, want %s", got, want)
			}
			// The stream must exercise what it checks: memo answers, DTB
			// evictions on the small machine, and both kinds of event.
			if c.dtb.Misses == 0 || c.dtb.Hits < c.dtb.Misses || events[EvDMiss] == 0 || events[EvDTBMiss] == 0 {
				t.Errorf("degenerate stream: DTB %d hits / %d misses, events %d DMISS / %d DTBMISS",
					c.dtb.Hits, c.dtb.Misses, events[EvDMiss], events[EvDTBMiss])
			}
			if tc.name == "small" && c.dtb.Misses <= uint64(len(pages)*len(procs)) {
				t.Errorf("small DTB missed only %d times: no evictions", c.dtb.Misses)
			}
		})
	}
}
