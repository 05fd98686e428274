package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// heapMetric counts live objects plus dead ones not yet swept: the heap the
// process actually holds between collections.
const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak tracks the largest heap seen by a background sampler and by
// explicit observe calls at operation and chunk boundaries, which catch
// peaks between two sampler ticks.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// sampleEvery is the background sampling period; on a 2-vCPU VM the
// runtime's timers fire no more often than that anyway.
const sampleEvery = time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.observe()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

// observe samples the heap now; a nil heapPeak samples nothing.
func (h *heapPeak) observe() {
	if h == nil {
		return
	}
	b := heapBytes()
	for {
		cur := h.peak.Load()
		if b <= cur || h.peak.CompareAndSwap(cur, b) {
			return
		}
	}
}

// lap returns the peak in MiB since the previous lap, or since the start,
// and begins the next lap at the heap's current size. peak_heap_mb is the
// median of a run's laps, one per operation or round: the largest heap
// during one operation depends on where the collector happened to stand,
// and the largest over a whole run reads the rare extreme, which moved
// static-sparse's peak by up to 15% between runs.
func (h *heapPeak) lap() float64 {
	h.observe()
	return float64(h.peak.Swap(heapBytes())) / (1 << 20)
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	h.observe()
	return h.peak.Load()
}
