// Package par runs the module's parallel stages — G_Δ marking, the CSR
// builders' passes, phase discovery and the simulator's rounds — on one
// shared set of parked worker goroutines.
//
// Do is the whole API. Callers keep a static assignment of work to call
// indices (contiguous blocks or round-robin), so what each call computes,
// and hence every output, never depends on scheduling or on which
// goroutine ran it.
package par

import "sync"

// worker is a parked goroutine. Do hands it one call at a time: it sets fn
// and w, signals start, and reads the call's recovered panic value (nil if
// the call returned) from done.
type worker struct {
	fn    func(int)
	w     int
	start chan struct{}
	done  chan any
	next  *worker // link in the idle list, or in one Do's lease
}

var (
	mu   sync.Mutex
	idle *worker // parked workers, a stack linked through next
)

// Do calls fn(0), …, fn(k−1) concurrently and returns once every call has
// returned. fn(0) runs on the caller's goroutine and the others on parked
// workers leased from a package-wide idle list; a worker is spawned only
// when the list is empty, and parks on it again afterwards. k ≤ 1 runs
// inline, without touching the list.
//
// If calls panic, Do waits for all of them and then panics on the caller's
// goroutine with the value of the lowest-numbered call that panicked.
//
// Workers are leased, not queued, so concurrent and nested calls never wait
// for one another. Once enough workers are parked, a call allocates
// nothing. Workers never exit: there are as many as were ever leased at
// once, and a parked one holds only its stack.
func Do(k int, fn func(w int)) {
	if k <= 1 {
		if k == 1 {
			fn(0)
		}
		return
	}
	lease := take(k - 1)
	w := 1
	for wk := lease; wk != nil; wk = wk.next {
		wk.fn, wk.w = fn, w
		wk.start <- struct{}{}
		w++
	}
	p := call(fn, 0)
	last := lease
	for wk := lease; wk != nil; wk = wk.next {
		if q := <-wk.done; p == nil {
			p = q
		}
		wk.fn, last = nil, wk
	}
	mu.Lock()
	last.next, idle = idle, lease
	mu.Unlock()
	if p != nil {
		//lint:ignore panicdiscipline re-raises a call's own panic value on the caller's goroutine, where a worker's panic could not be recovered
		panic(p)
	}
}

// take leases k workers: parked ones first, then freshly spawned ones.
func take(k int) *worker {
	var lease *worker
	mu.Lock()
	for ; k > 0 && idle != nil; k-- {
		wk := idle
		idle, wk.next = wk.next, lease
		lease = wk
	}
	mu.Unlock()
	for ; k > 0; k-- {
		wk := &worker{start: make(chan struct{}, 1), done: make(chan any, 1), next: lease}
		go wk.loop()
		lease = wk
	}
	return lease
}

// loop runs the calls Do hands the worker, forever.
func (wk *worker) loop() {
	for range wk.start {
		wk.done <- call(wk.fn, wk.w)
	}
}

// call runs fn(w) and returns the value it panicked with, or nil.
func call(fn func(int), w int) (p any) {
	defer func() { p = recover() }()
	fn(w)
	return nil
}
