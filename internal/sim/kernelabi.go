package sim

// PAL function codes. The simulator implements the PALcode dispatch the real
// Alpha hardware provides: callsys enters the kernel, retsys/rti leave it.
const (
	PalCallsys = 0x83 // syscall: v0 holds the syscall number
	PalRetsys  = 0x84 // return from syscall to the saved user PC
	PalRti     = 0x85 // return from (timer) interrupt
)

// Syscall numbers (in v0 at callsys).
const (
	SysExit   = 0 // terminate the process
	SysYield  = 1 // give up the CPU
	SysSleep  = 2 // block for a1 cycles
	SysWrite  = 3 // "write" a0..a0+a1 bytes (kernel does checksum+copy work)
	SysGetPID = 4 // v0 <- PID
)

// KernelABI tells the simulator where the kernel's entry points live as byte
// offsets within the kernel image. The workload package builds a kernel
// image with these procedures; the simulator dispatches PAL traps to them.
type KernelABI struct {
	// SyscallEntry is where CALL_PAL callsys lands; the kernel code
	// dispatches on v0 and finishes with CALL_PAL retsys.
	SyscallEntry uint64
	// TimerEntry is where the clock interrupt lands; it finishes with
	// CALL_PAL rti, after which the simulator may context switch.
	TimerEntry uint64
	// IdleEntry is the kernel idle loop, run when no process is runnable.
	IdleEntry uint64
	// HandlerEntry is the performance-counter interrupt handler's own
	// address, used by the "meta" sampling method (paper footnote 2) to
	// attribute samples whose delivery falls inside the handler.
	HandlerEntry uint64
}

// PALLatency is the uninterruptible PALcode sequence length in cycles;
// samples whose interrupts would fire inside it are deferred and accumulate
// on the next interruptible instruction (paper §4.1.3).
const PALLatency = 30
