package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: a fixed Go loop took from
// 0.18 to 0.34 s from one half second to the next, and slow stretches
// last minutes, long enough to move a whole run's latencies and set-up
// time by 2x and its CPU times by 1.5x. Averaging inside a run cannot
// remove that. So, with every measured phase, the benchmark times a fixed
// kernel of its own on two clocks and scales the gated times by
// calibRefMs over the kernel's median on the same clock: cpu_us_per_op by
// its CPU time, setup_s and p50_ms by its wall time. They then read as on
// a host where the kernel takes calibRefMs. The clocks part when the
// hypervisor runs another guest on this one's core: wall time grows, the
// guest's CPU time does not. Of an open-loop operation's latency only the
// part after the load generator issued it is scaled: the generator's
// lateness is its timer's wake-up, about 0.5 ms whatever the host's
// speed, which is half an ingest ack. The kernel is part of the
// benchmark, not of the program under test, so no change to the program
// moves the scale. Each run prints the kernel times and the unscaled
// metrics on stderr, and --repeat summarizes them; both kernel times are
// also per-layer metrics.
const (
	calibRefMs = 20.0
	calibEvery = 250 * time.Millisecond
)

// The kernel is a small register-machine interpreter, the same kind of
// work as the simulated machine's loop but written here: a dispatch on
// an opcode per step, register arithmetic, and loads and stores into
// memory held as a map of pages, allocated afresh each run. Its program
// and data are fixed, so its time depends on the host alone.
type calibOp struct {
	op, dst, a, b uint8
	imm           uint64
}

const (
	calibAdd = iota
	calibMul
	calibXor
	calibShr
	calibLoad
	calibStore
	calibOps

	calibRegs     = 8
	calibPageBits = 9 // 512 words a page
	calibPages    = 256
	calibSteps    = 2_000_000
)

var calibProg = func() []calibOp {
	rng := rand.New(rand.NewSource(1))
	prog := make([]calibOp, 97)
	for i := range prog {
		prog[i] = calibOp{op: uint8(rng.Intn(calibOps)), dst: uint8(rng.Intn(calibRegs)),
			a: uint8(rng.Intn(calibRegs)), b: uint8(rng.Intn(calibRegs)), imm: rng.Uint64() | 1}
	}
	return prog
}()

// calibSum is the kernel's result, which every run must reproduce.
var calibSum = calibKernel()

// calibKernel runs the interpreter for calibSteps steps and returns a
// checksum of its registers.
func calibKernel() uint64 {
	pages := map[uint64]*[1 << calibPageBits]uint64{}
	var r [calibRegs]uint64
	for i := range r {
		r[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	word := func(addr uint64) *uint64 {
		addr %= calibPages << calibPageBits
		p := pages[addr>>calibPageBits]
		if p == nil {
			p = new([1 << calibPageBits]uint64)
			pages[addr>>calibPageBits] = p
		}
		return &p[addr&(1<<calibPageBits-1)]
	}
	for step := 0; step < calibSteps; step++ {
		in := &calibProg[step%len(calibProg)]
		switch in.op {
		case calibAdd:
			r[in.dst] = r[in.a] + r[in.b] + in.imm
		case calibMul:
			r[in.dst] = r[in.a] * in.imm
		case calibXor:
			r[in.dst] = r[in.a] ^ r[in.b]
		case calibShr:
			r[in.dst] = r[in.a]>>7 | r[in.b]<<57
		case calibLoad:
			r[in.dst] += *word(r[in.a])
		case calibStore:
			*word(r[in.a]) = r[in.b]
		}
	}
	var sum uint64
	for _, x := range r {
		sum = sum*31 + x
	}
	return sum
}

// calibrate times one kernel run in ms, on the wall clock and on its
// thread's CPU clock.
func calibrate() (wall, cpu float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), threadCPU()
	sum := calibKernel()
	wall, cpu = ms(time.Since(t0)), ms(threadCPU()-c0)
	if sum != calibSum {
		return 0, 0, fmt.Errorf("calibration kernel returned %x, want %x", sum, calibSum)
	}
	return wall, cpu, nil
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSpeed collects kernel timings: from a goroutine of the benchmark
// process beside the service workloads (whose timed work runs in witchd
// and in the load generator's waits), or between two timed calls on the
// profile workload (whose timed work runs on the benchmark's own thread).
type hostSpeed struct {
	stop, done chan struct{}
	last       time.Time
	wall, cpu  []float64
	err        error
}

// measureHost samples the kernel every calibEvery in the background
// until record is called.
func measureHost() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		for {
			if h.sample(); h.err != nil {
				return
			}
			select {
			case <-h.stop:
				return
			case <-time.After(calibEvery):
			}
		}
	}()
	return h
}

func (h *hostSpeed) sample() {
	wall, cpu, err := calibrate()
	if err != nil {
		h.err = err
		return
	}
	h.wall, h.cpu = append(h.wall, wall), append(h.cpu, cpu)
	h.last = time.Now()
}

// between samples the kernel if calibEvery has passed since the last
// sample. The profile workload calls it between two timed calls; a nil
// *hostSpeed samples nothing.
func (h *hostSpeed) between() {
	if h != nil && h.err == nil && time.Since(h.last) >= calibEvery {
		h.sample()
	}
}

// record stops background sampling, if any, and stores the median kernel
// times in ms: host.calib_ms on the wall clock, host.calib_cpu_ms on the
// CPU clock.
func (h *hostSpeed) record(v map[string]float64) error {
	if h.stop != nil {
		close(h.stop)
		<-h.done
	}
	v["host.calib_ms"] = percentile(h.wall, 0.5)
	v["host.calib_cpu_ms"] = percentile(h.cpu, 0.5)
	return h.err
}
