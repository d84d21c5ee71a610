package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent shared worker pool the blocked GEMM
// core fans out over. The previous runtime spawned a goroutine fan-out per
// large matmul call, which cost a spawn+join per call and leaked allocations
// past the pooled steady state; here a fixed set of helper goroutines lives
// for the process and every dispatch structure is recycled, so a warm
// parallel kernel performs zero heap allocations.
//
// Dispatch protocol (lock-free, join-on-receive):
//
//   - The caller initializes a *parRun (task counter, outstanding=1 for
//     itself), offers its pointer to helpers via a buffered channel with
//     non-blocking sends, then works the task counter itself.
//   - A helper that receives the pointer "joins" by CAS-incrementing
//     outstanding from a non-zero value; a zero value means the run already
//     completed (stale pointer) and the helper drops it. Joined helpers
//     claim disjoint task indices from an atomic counter.
//   - Whoever decrements outstanding to zero last signals the buffered done
//     channel; the caller waits on it only if helpers were still attached
//     when the caller finished — and while waiting it helps drain other
//     runs from the channel, so a busy pool can never deadlock callers.
//
// Correctness does not depend on who executes which task: tasks are
// disjoint output tiles whose accumulation order is fixed (see ref.go), so
// results are bit-identical for any worker count, including zero helpers.

// parRun is one parallel kernel dispatch, recycled through runPool.
type parRun struct {
	job         gemmJob
	ntasks      int32
	next        atomic.Int32
	outstanding atomic.Int32
	done        chan struct{}
}

var (
	// workCh fans run pointers out to helper goroutines. Buffered so
	// non-blocking sends succeed even while every helper is busy; stale
	// entries are rejected at join time.
	workCh = make(chan *parRun, 128)

	runPool = sync.Pool{New: func() any {
		return &parRun{done: make(chan struct{}, 1)}
	}}

	poolMu      sync.Mutex
	poolStop    chan struct{}
	poolTarget  atomic.Int32
	poolStarted atomic.Bool
)

// Workers reports the kernel worker count parallel GEMM dispatch targets
// (the caller plus Workers()-1 persistent helper goroutines). Before any
// SetWorkers call it defaults to GOMAXPROCS at first kernel use.
func Workers() int {
	ensurePool()
	return int(poolTarget.Load())
}

// SetWorkers resizes the shared kernel worker pool to n (n < 1 resets to
// GOMAXPROCS) and returns the previous setting. Kernel results are
// bit-identical for every worker count, so this only trades wall-clock for
// CPU; it exists for benchmarks, tests, and embedders that cap kernel
// parallelism below GOMAXPROCS.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	prev := int(poolTarget.Load())
	if poolStop != nil {
		close(poolStop)
	}
	poolStop = make(chan struct{})
	for i := 0; i < n-1; i++ {
		go helperLoop(poolStop)
	}
	poolTarget.Store(int32(n))
	poolStarted.Store(true)
	return prev
}

// ensurePool lazily sizes the pool to GOMAXPROCS on first use.
func ensurePool() {
	if poolStarted.Load() {
		return
	}
	poolMu.Lock()
	started := poolStarted.Load()
	poolMu.Unlock()
	if !started {
		SetWorkers(runtime.GOMAXPROCS(0))
	}
}

// helperLoop is one persistent pool worker: it drains dispatches until its
// generation is stopped by SetWorkers.
func helperLoop(stop chan struct{}) {
	for {
		select {
		case r := <-workCh:
			r.helperRun()
		case <-stop:
			return
		}
	}
}

// helperRun joins a received run if it is still live and works its tasks.
func (r *parRun) helperRun() {
	for {
		o := r.outstanding.Load()
		if o <= 0 {
			return // stale pointer: the run completed (or was recycled)
		}
		if r.outstanding.CompareAndSwap(o, o+1) {
			break
		}
	}
	r.work()
	if r.outstanding.Add(-1) == 0 {
		r.done <- struct{}{}
	}
}

// work claims task indices until the counter is exhausted.
func (r *parRun) work() {
	for {
		t := r.next.Add(1) - 1
		if t >= r.ntasks {
			return
		}
		r.job.runTile(int(t))
	}
}

// parallelTiles runs the job's ntiles disjoint tile tasks across the shared
// pool, with the caller participating. Zero heap allocations once runPool
// and the pack-panel free list are warm.
func parallelTiles(job *gemmJob, ntiles int) {
	ensurePool()
	helpers := int(poolTarget.Load()) - 1
	if helpers > ntiles-1 {
		helpers = ntiles - 1
	}
	if helpers <= 0 {
		for t := 0; t < ntiles; t++ {
			job.runTile(t)
		}
		return
	}
	r := runPool.Get().(*parRun)
	r.job = *job
	r.ntasks = int32(ntiles)
	r.next.Store(0)
	r.outstanding.Store(1)
offer:
	for h := 0; h < helpers; h++ {
		select {
		case workCh <- r:
		default:
			break offer // channel full: helpers are saturated already
		}
	}
	r.work()
	if r.outstanding.Add(-1) > 0 {
		// Helpers are still attached; help drain other dispatches (possibly
		// our own still-queued pointer) until the last one signals done.
	wait:
		for {
			select {
			case o := <-workCh:
				o.helperRun()
			case <-r.done:
				break wait
			}
		}
	}
	r.job = gemmJob{} // drop matrix references before pooling
	runPool.Put(r)
}
