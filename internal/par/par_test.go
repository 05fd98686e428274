package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInline checks that k = 0 calls nothing and that k = 1 calls fn(0)
// on the caller's goroutine, so a panic there reaches the caller as is.
func TestInline(t *testing.T) {
	Do(0, func(int) { t.Fatal("k = 0 made a call") })
	Do(-3, func(int) { t.Fatal("k < 0 made a call") })

	got, inline := -1, false
	Do(1, func(w int) { got, inline = w, onStack("par.TestInline") })
	if got != 0 || !inline {
		t.Fatalf("k = 1 called fn(%d), on the caller's goroutine: %v", got, inline)
	}

	defer func() {
		if r := recover(); r != "inline" {
			t.Fatalf("recovered %v, want the inline call's panic", r)
		}
	}()
	Do(1, func(int) { panic("inline") })
}

// TestCallZeroOnCaller checks that fn(0) runs on the caller's goroutine
// and the other calls do not.
func TestCallZeroOnCaller(t *testing.T) {
	var inline [3]bool
	Do(3, func(w int) { inline[w] = onStack("par.TestCallZeroOnCaller") })
	if inline != [3]bool{true, false, false} {
		t.Fatalf("calls on the caller's goroutine: %v, want only call 0", inline)
	}
}

// onStack reports whether a function whose name ends in name is on the
// calling goroutine's stack.
func onStack(name string) bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, name) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestEveryCallOnce checks that each index runs exactly once per Do.
func TestEveryCallOnce(t *testing.T) {
	for _, k := range []int{2, 3, 8} {
		hits := make([]int32, k)
		Do(k, func(w int) { atomic.AddInt32(&hits[w], 1) })
		for w, h := range hits {
			if h != 1 {
				t.Fatalf("k = %d: fn(%d) ran %d times", k, w, h)
			}
		}
	}
}

// TestPanicLowestIndexAfterAll makes calls 1 and 3 of 4 panic while call 2
// is still blocked: the caller must see call 1's value, and only after
// every call, the blocked one included, has returned.
func TestPanicLowestIndexAfterAll(t *testing.T) {
	release := make(chan struct{})
	var returned atomic.Int32
	defer func() {
		if r := recover(); r != 1 {
			t.Fatalf("recovered %v, want call 1's panic", r)
		}
		if got := returned.Load(); got != 4 {
			t.Fatalf("Do re-panicked after %d of 4 calls returned", got)
		}
	}()
	Do(4, func(w int) {
		defer returned.Add(1)
		switch w {
		case 0:
			close(release)
		case 1, 3:
			panic(w)
		case 2:
			<-release
		}
	})
	t.Fatal("Do returned without re-panicking")
}

// TestPanicCallZeroWins checks that the caller's own call outranks a
// worker's panic.
func TestPanicCallZeroWins(t *testing.T) {
	defer func() {
		if r := recover(); r != 0 {
			t.Fatalf("recovered %v, want call 0's panic", r)
		}
	}()
	Do(3, func(w int) { panic(w) })
}

// TestWorkersReusedAfterPanic checks that a panicking call leaves its
// worker parked and usable.
func TestWorkersReusedAfterPanic(t *testing.T) {
	func() {
		defer func() { recover() }()
		Do(4, func(w int) {
			if w > 0 {
				panic(w)
			}
		})
	}()
	var sum atomic.Int32
	Do(4, func(w int) { sum.Add(int32(w)) })
	if sum.Load() != 6 {
		t.Fatalf("sum of indices = %d, want 6", sum.Load())
	}
}

// TestNested runs Do inside the calls of another Do: leased workers are
// busy, not queued, so the inner calls lease or spawn their own.
func TestNested(t *testing.T) {
	var hits [3][4]atomic.Int32
	Do(3, func(i int) {
		Do(4, func(j int) { hits[i][j].Add(1) })
	})
	for i := range hits {
		for j := range hits[i] {
			if h := hits[i][j].Load(); h != 1 {
				t.Fatalf("inner call (%d,%d) ran %d times", i, j, h)
			}
		}
	}
}

// TestConcurrentCallers runs 8 callers at once, each summing its own
// slice in blocks; run it under -race.
func TestConcurrentCallers(t *testing.T) {
	const callers, k, per = 8, 4, 1000
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]int, k*per)
			for i := range data {
				data[i] = c + i
			}
			for round := 0; round < 50; round++ {
				sums := make([]int, k)
				Do(k, func(w int) {
					for _, x := range data[w*per : (w+1)*per] {
						sums[w] += x
					}
				})
				total := 0
				for _, s := range sums {
					total += s
				}
				if want := len(data)*c + len(data)*(len(data)-1)/2; total != want {
					t.Errorf("caller %d round %d: sum %d, want %d", c, round, total, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestZeroAllocs checks that a warm Do with a prebuilt fn allocates
// nothing.
func TestZeroAllocs(t *testing.T) {
	var sink [4]int
	fn := func(w int) { sink[w]++ }
	Do(4, fn) // warm-up: park enough workers
	if a := testing.AllocsPerRun(100, func() { Do(4, fn) }); a != 0 {
		t.Fatalf("Do(4, fn) allocates %v per call after warm-up, want 0", a)
	}
}
