package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The reference kernel is a fixed amount of memory-bound work that
// shares no code with the program: it sorts 2^19 pseudo-random keys and
// runs a breadth-first search over a fixed random graph of 2^17 vertices
// and 2^20 arcs in CSR form. On a shared host the CPU time of one and the
// same solve drifts by 10–40% from one window of seconds to the next, as
// other tenants load the caches and memory; the guest cannot see this,
// and it is not steal time. The kernel drifts with it, if somewhat less.
// So the benchmark times the kernel next to each op and reports op CPU
// time in units of kernel CPU time (`ref`), which cancels most of the
// drift. A change to the program moves the op and not the kernel.
//
// The kernel's buffers hold no pointers, so the garbage collector has
// almost nothing to do for it, and its thread's CPU time is its whole
// cost whichever thread the collector runs on.
const (
	refKeys     = 1 << 19
	refVertices = 1 << 17
	refDegree   = 8
)

// rusageThread is RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// referenceCPU runs the kernel once on a locked OS thread and returns
// the thread's CPU time for it. Other goroutines of the process neither
// run on that thread meanwhile nor count in the result. The buffers are
// allocated afresh, so nothing stays resident between runs.
func referenceCPU() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	referenceKernel()
	return threadCPU() - start
}

// refSink keeps the kernel's result alive.
var refSink int

func referenceKernel() {
	rnd := rand.New(rand.NewPCG(1, 2))
	keys := make([]uint64, refKeys)
	for i := range keys {
		keys[i] = rnd.Uint64()
	}
	slices.Sort(keys)

	adj := make([]int32, refVertices*refDegree)
	for i := range adj {
		adj[i] = int32(rnd.IntN(refVertices))
	}
	dist := make([]int32, refVertices)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 1, refVertices)
	dist[0] = 0
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, w := range adj[int(u)*refDegree : int(u+1)*refDegree] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	refSink += len(queue) + int(keys[refKeys/2]&1)
}
