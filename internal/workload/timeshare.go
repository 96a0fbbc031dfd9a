package workload

import (
	"fmt"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// The timesharing workload: an office/technical mix of interactive-ish
// processes that compute, sleep, and wake, across 4 CPUs — the long-running
// profile session of Table 2.

// interactiveSrc computes in bursts separated by sleeps.
const interactiveSrc = `
main:
	; a0 = data, a3 = bursts, a4 = burst length, a5 = sleep cycles
.burst:
	bis  a0, zero, t1
	bis  a4, zero, t0
	lda  t9, 4095(zero)
.work:
	ldq  t2, 0(t1)
	sll  t2, 3, t3
	xor  t2, t3, t2
	stq  t2, 0(t1)
	lda  t1, 8(t1)
	and  t1, t9, t4
	bne  t4, .cont
	bis  a0, zero, t1
.cont:
	subq t0, 1, t0
	bne  t0, .work
	lda  v0, 2(zero)         ; sleep
	bis  a5, zero, a1
	call_pal 0x83
	subq a3, 1, a3
	bne  a3, .burst
	lda  v0, 0(zero)         ; exit
	call_pal 0x83
	nop
`

func setupTimeshare(ctx *Ctx) error {
	// A mix: editors (short bursts, long sleeps), builds (long bursts,
	// short sleeps), and daemons (tiny periodic ticks).
	kinds := []struct {
		name   string
		count  int
		bursts int
		length int
		sleep  int
	}{
		{"editor", 4, 30, 1500, 40000},
		{"build", 2, 20, 20000, 5000},
		{"daemon", 4, 60, 400, 25000},
	}
	id := 0
	for _, k := range kinds {
		for i := 0; i < k.count; i++ {
			p, err := newProcess(ctx, fmt.Sprintf("%s[%d]", k.name, i), "/usr/bin/"+k.name, interactiveSrc)
			if err != nil {
				return err
			}
			p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
			p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(k.bursts)))
			p.Regs.WriteI(alpha.RegA4, uint64(k.length))
			p.Regs.WriteI(alpha.RegA5, uint64(k.sleep))
			ctx.fillMemory(p, loader.HeapBase, 512, uint64(71+id))
			id++
		}
	}
	return nil
}

func init() {
	register(Spec{
		Name:        "timeshare",
		Description: "timesharing mix: editors, builds, and daemons with sleep/wake cycles on 4 CPUs",
		NumCPUs:     4,
		Setup:       setupTimeshare,
	})
}
