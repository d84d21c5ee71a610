package main

import (
	"os"
	"runtime"
	"syscall"
	"time"
)

// opTimer times operations in wall-clock seconds net of steal time.
//
// On a shared virtual machine the hypervisor withholds the CPUs in bursts:
// where this benchmark was tuned it took 15-50% of their time, which moved
// the median train-wide step of one build between 32 and 50 ms from run to
// run. Steal time accrues only while a CPU has work, so over the timer's
// life the process kept (CPU time + steal time) / wall time CPUs busy or
// waiting, on average; that demand converts stolen CPU time into delay. Each
// operation is charged its wall time less the steal time during it divided
// by the demand. Net of steal, runs of one build agree within a few percent.
type opTimer struct {
	t0           time.Time
	cpu0, steal0 float64
	wall, stolen []float64
}

func startTimer() *opTimer {
	return &opTimer{t0: time.Now(), cpu0: cpuSeconds(), steal0: steal.seconds()}
}

// op times fn as one operation.
func (t *opTimer) op(fn func() error) error {
	s, w := steal.seconds(), time.Now()
	err := fn()
	t.wall = append(t.wall, time.Since(w).Seconds())
	t.stolen = append(t.stolen, steal.seconds()-s)
	return err
}

// stop returns each operation's net time and the process CPU seconds spent
// since the timer started.
func (t *opTimer) stop() (net []float64, cpu float64) {
	elapsed := time.Since(t.t0).Seconds()
	cpu = cpuSeconds() - t.cpu0
	demand := max(1, (cpu+steal.seconds()-t.steal0)/elapsed)
	net = make([]float64, len(t.wall))
	for i, w := range t.wall {
		net[i] = max(0, w-t.stolen[i]/demand)
	}
	return net, cpu
}

// closedLoop calls op back to back from the calling goroutine until d has
// elapsed, at least once. It returns each call's net time and the process
// CPU seconds spent.
func closedLoop(d time.Duration, op func(i int) error) ([]float64, float64, error) {
	t := startTimer()
	var err error
	for i := 0; err == nil && (i == 0 || time.Since(t.t0) < d); i++ {
		err = t.op(func() error { return op(i) })
	}
	net, cpu := t.stop()
	return net, cpu, err
}

// countAllocs returns the heap objects fn allocates, after a collection so
// that earlier garbage is not charged to it.
func countAllocs(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, err
}

// cpuSeconds is the process's CPU time, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// steal is the process's steal clock, read only by the driving goroutine.
var steal = openStealClock()

// stealClock reads the CPU time the hypervisor has withheld from this
// machine's CPUs while they had work: the steal field of the cpu line of
// /proc/stat, summed over CPUs. A nil stealClock, where /proc/stat is
// unavailable, reads 0, and times are plain wall time.
type stealClock struct {
	f   *os.File
	buf [256]byte
}

// userHZ is the unit of /proc/stat's counters on Linux.
const userHZ = 100

func openStealClock() *stealClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	s := &stealClock{f: f}
	if s.read() < 0 {
		f.Close()
		return nil
	}
	return s
}

// seconds returns the steal time since boot. It does not allocate.
func (s *stealClock) seconds() float64 {
	if s == nil {
		return 0
	}
	return max(0, s.read())
}

// read parses the eighth number of "cpu  user nice system idle iowait irq
// softirq steal ...", or returns -1.
func (s *stealClock) read() float64 {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if n == 0 && err != nil {
		return -1
	}
	field, v, in := 0, int64(0), false
	for _, c := range s.buf[:n] {
		switch {
		case c >= '0' && c <= '9':
			if !in {
				field++
				v, in = 0, true
			}
			v = 10*v + int64(c-'0')
		case c == '\n':
			return -1
		default:
			if in && field == 8 {
				return float64(v) / userHZ
			}
			in = false
		}
	}
	return -1
}
