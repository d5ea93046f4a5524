package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// sample pairs a generated request's lengths with what the client saw.
type sample struct {
	promptLen, outputLen int
	failed               bool // the request failed or a check rejected it
	o                    outcome
}

// phase is one measured stretch of traffic. It counts every request it
// sends; the open loop also keeps each one's sample, while the closed
// loop keeps only the counts, so its hundreds of thousands of requests do
// not show in heap_peak_mb.
type phase struct {
	name     string
	start    int64         // ns since epoch
	dur      time.Duration // how long the phase offered load
	samples  []sample      // open loop only
	lateness time.Duration // open loop: worst delay of a send past its due time

	mu        sync.Mutex
	sent      int
	failed    int
	outTokens int64   // output tokens the sent requests asked for
	errs      []error // the first few failures, for the report
}

// send runs one measured request, counting it and keeping its error if
// it failed.
func (ph *phase) send(st *stack, q request, due int64) sample {
	o, err := st.do(context.Background(), q, due, true)
	ph.mu.Lock()
	ph.sent++
	ph.outTokens += int64(q.OutputLen)
	if err != nil {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, err)
		}
	}
	ph.mu.Unlock()
	return sample{promptLen: q.PromptLen, outputLen: q.OutputLen, failed: err != nil, o: o}
}

// closedLoop runs maxConns clients back to back until the saturation
// stream's requests first..first+n-1 are done: each client sends its next
// request as soon as its previous one completes, so each request is due
// the moment it is sent. The phase lasts until the last one completes.
func closedLoop(st *stack, t *traffic, first, n int) *phase {
	ph := &phase{name: "saturation", start: now()}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(first+n); i = next.Add(1) - 1 {
				ph.send(st, t.at(streamSaturate, int(i)), now())
			}
		}()
	}
	wg.Wait()
	ph.dur = time.Duration(now() - ph.start)
	return ph
}

// openLoop offers a Poisson schedule regardless of how the server keeps
// up: a generator releases each request at its due time, and maxConns
// connections send them in order. A request waiting for a free
// connection is still timed from its due time. sched holds due offsets
// from the phase's start; the i-th is the stream's request first+i.
func openLoop(st *stack, t *traffic, name string, stream uint64, sched []time.Duration, first int, dur time.Duration) *phase {
	ph := &phase{name: name, start: now(), dur: dur, samples: make([]sample, len(sched))}
	due := make(chan int, len(sched)) // one slot per scheduled request: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(due)
		for i, off := range sched {
			at := ph.start + int64(off)
			if d := time.Duration(at - now()); d > 0 {
				time.Sleep(d)
			}
			if late := time.Duration(now() - at); late > ph.lateness {
				ph.lateness = late
			}
			due <- i
		}
	}()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				q := t.at(stream, first+i)
				ph.samples[i] = ph.send(st, q, ph.start+int64(sched[i]))
			}
		}()
	}
	wg.Wait()
	return ph
}

// rate returns the phase's completions per second: the requests that
// passed their checks over the phase's duration.
func (ph *phase) rate() float64 { return float64(ph.sent-ph.failed) / ph.dur.Seconds() }

// heapSampler tracks the peak live heap (as of the latest GC) while the
// benchmark runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
